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


def legendre_divided(F, m, x):
    """P_m(x) by n P_n = (2n-1) x P_{n-1} - (n-1) P_{n-2}, dividing by n
    at every step; needs m < p."""
    if m == 0:
        return F.one
    prev, cur = F.one, x
    for n in range(2, m + 1):
        t = F.sub(F.mul(F.from_int(2 * n - 1), F.mul(x, cur)),
                  F.mul(F.from_int(n - 1), prev))
        prev, cur = cur, F.mul(t, F.inv(F.from_int(n)))
    return cur


def expand_power(F, f, e):
    """f^e by e dense multiplications."""
    acc = [F.one]
    for _ in range(e):
        acc = polys.mul(F, acc, f)
    return acc
