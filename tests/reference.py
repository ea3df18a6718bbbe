"""Reference checks that the tests hold the package's results against."""

from hypercount import polys


def mumford_valid(curve, D):
    """Representation invariants: u monic, deg v < deg u <= g, u | v^2 - f."""
    F = curve.F
    u, v = D
    if not u or u[-1] != F.one:
        return False
    if polys.degree(u) > curve.g:
        return False
    if polys.degree(v) >= polys.degree(u):
        return False
    t = polys.sub(F, polys.mul(F, v, v), curve.f)
    return not polys.rem(F, t, u)
