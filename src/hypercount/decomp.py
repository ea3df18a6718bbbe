"""Quotient curves and the induced Jacobian splitting.

A family curve y^2 = x^(2g+1) + a x^(g+1) + b x acquires extra involutions
once beta with beta^g = b enters the field: composing the hyperelliptic
involution omega with the order-2 part of the x -> beta^2/x symmetry. The two
quotient curves are hyperelliptic again, with genera floor(g/2) and
ceil(g/2), and the Jacobian splits (up to isogeny) as their product over the
splitting field: F_q[b^(1/g)] for odd g, F_q[b^(1/(2g))] for even g.

Equations are expressed through Dickson polynomials D_g(x, alpha), which is
what x^g + (alpha/x)^g collapses to under x + alpha/x -> x.
"""

from . import polys
from .config import DEFAULT_BUDGET, DEFAULT_SEED
from .curves import curve_from_f, zeta_oracle
from .descent import extend_lpoly
from .errors import BadGenus, CharacteristicDividesGenus, EvenGenus, \
    MismatchDetected, RootUnavailable
from .fields import embed, make_extension, nth_root, nth_root_field_degree


class QuotientPair:
    """The two quotient curves, with the field they ended up defined over.

    extended is set when a square root forced a quadratic extension of
    the requested field.
    """

    __slots__ = ("X1", "X2", "defined_over", "extended")

    def __init__(self, X1, X2, defined_over, extended=False):
        self.X1 = X1
        self.X2 = X2
        self.defined_over = defined_over
        self.extended = extended

    def __repr__(self):
        return (f"QuotientPair(genus {self.X1.g} x genus {self.X2.g} "
                f"over {self.defined_over!r})")


def _pair(F, g, f1, f2, extended=False):
    X1 = curve_from_f(F, f1)
    X2 = curve_from_f(F, f2)
    if X1.g + X2.g != g:
        raise AssertionError("quotient genera do not add up")
    return QuotientPair(X1, X2, F, extended=extended)


def quotients_normalized(F, g, c):
    """Quotients of the b = 1 normal form y^2 = x^(2g+1) + c x^(g+1) + x.

    Odd g:  X1: y^2 = D_g(x) + c          X2: y^2 = (x^2 - 4)(D_g(x) + c)
    Even g: X1: y^2 = (x + 2)(D_g(x) + c) X2: y^2 = (x - 2)(D_g(x) + c)

    Degenerate c making a right-hand side non-squarefree raises
    SingularCurve from curve construction.
    """
    if g < 2:
        raise BadGenus("quotient pair needs g >= 2; at g = 1 one side is rational")
    if g % F.p == 0:
        raise CharacteristicDividesGenus(f"p = {F.p} divides g = {g}")
    c = F.coerce(c)
    base = polys.add(F, polys.dickson(F, g, F.one), polys.constant(F, c))
    two = F.from_int(2)
    if g % 2 == 1:
        quad = [F.neg(F.from_int(4)), F.zero, F.one]  # x^2 - 4
        return _pair(F, g, base, polys.mul(F, quad, base))
    return _pair(F, g,
                 polys.mul(F, [two, F.one], base),
                 polys.mul(F, [F.neg(two), F.one], base))


def quotients_family(F, g, a, alpha):
    """Quotients of y^2 = x^(2g+1) + a x^(g+1) + alpha^g x.

    Odd g:  X1: y^2 = D_g(x, alpha) + a
            X2: y^2 = (x^2 - 4 alpha)(D_g(x, alpha) + a)
    Even g: X1: y^2 = (x + 2 sqrt(alpha))(D_g(x, alpha) + a)
            X2: y^2 = (x - 2 sqrt(alpha))(D_g(x, alpha) + a)

    Even g needs sqrt(alpha); when it is missing the pair is built over the
    quadratic extension and flagged via .extended. alpha = 1 reduces to
    quotients_normalized.
    """
    if g < 2:
        raise BadGenus("quotient pair needs g >= 2; at g = 1 one side is rational")
    if g % F.p == 0:
        raise CharacteristicDividesGenus(f"p = {F.p} divides g = {g}")
    a = F.coerce(a)
    alpha = F.coerce(alpha)
    extended = False
    if g % 2 == 0:
        s = F.sqrt(alpha)
        if s is None:
            K = make_extension(F, 2)
            a = embed(a, F, K)
            alpha = embed(alpha, F, K)
            F, extended = K, True
            s = F.sqrt(alpha)
            if s is None:
                raise RootUnavailable("sqrt(alpha) missing even over F_{q^2}")
    base = polys.add(F, polys.dickson(F, g, alpha), polys.constant(F, a))
    if g % 2 == 1:
        quad = [F.neg(F.mul(F.from_int(4), alpha)), F.zero, F.one]
        return _pair(F, g, base, polys.mul(F, quad, base))
    twos = F.mul(F.from_int(2), s)
    return _pair(F, g,
                 polys.mul(F, [twos, F.one], base),
                 polys.mul(F, [F.neg(twos), F.one], base),
                 extended=extended)


def twist_curves(F, g, a, b):
    """Twists of the quotient pair, defined over F_q[sqrt(b)].

    Dividing out b turns the quotients into the normal-form pair at
    c = a/sqrt(b); these are the curves cheap enough to count directly.
    Builds F_{q^2} when sqrt(b) is missing (flagged via .extended).
    """
    a = F.coerce(a)
    b = F.coerce(b)
    extended = False
    sb = F.sqrt(b)
    if sb is None:
        K = make_extension(F, 2)
        a = embed(a, F, K)
        b = embed(b, F, K)
        F, extended = K, True
        sb = F.sqrt(b)
        if sb is None:
            raise RootUnavailable("sqrt(b) missing even over F_{q^2}")
    pair = quotients_normalized(F, g, F.div(a, sb))
    pair.extended = extended
    return pair


def elliptic_quotient(F, g, a, b):
    """The genus-1 quotient E: y^2 = x^3 + a x^2 + b x under (x,y) -> (x^g, y x^((g-1)/2)).

    Only odd g has this map; its trace divides into the full polynomial as
    the (T^2 - t T + q) factor.
    """
    if g % 2 == 0:
        raise EvenGenus(f"no elliptic quotient for even g = {g}")
    return curve_from_f(F, [F.zero, F.coerce(b), F.coerce(a), F.one])


def splitting_field_degree(F, g, b):
    """Degree k with F_{q^k} = the splitting field of the Jacobian."""
    m = g if g % 2 == 1 else 2 * g
    return nth_root_field_degree(F, F.coerce(b), m)


def split_quotients(curve, seed=DEFAULT_SEED):
    """Quotient pair of a family curve over its splitting field."""
    F, g = curve.F, curve.g
    k = splitting_field_degree(F, g, curve.b)
    K = make_extension(F, k, seed=seed)
    aK = embed(curve.a, F, K)
    if g % 2 == 1:
        alpha = nth_root(F, curve.b, g, K)
    else:
        s = nth_root(F, curve.b, 2 * g, K)  # b^(1/(2g)) = sqrt(alpha)
        alpha = K.mul(s, s)
    pair = quotients_family(K, g, aK, alpha)
    if pair.extended:
        raise AssertionError("splitting field failed to contain sqrt(alpha)")
    return pair, k


def decomposition_check(curve, budget=DEFAULT_BUDGET, seed=DEFAULT_SEED,
                        direct=False):
    """Verify L_C = L_X1 * L_X2 over the splitting field, by oracle counts.

    Both quotients are counted directly over F_{q^k}; L_C is counted
    over F_q and extended by exact power-sum arithmetic, which keeps the
    enumeration at q^g instead of q^(gk).  Passing direct=True forces
    counting C over the splitting field too (only sane for tiny fields).
    Returns a report carrying all three polynomials; a mismatch raises
    MismatchDetected since it would mean a bug, not bad input.
    """
    if not curve.is_family:
        raise ValueError("decomposition check needs a family curve")
    pair, k = split_quotients(curve, seed=seed)
    if direct:
        LC = zeta_oracle(curve.base_extend(k, seed=seed),
                         budget=budget, seed=seed)
    else:
        LC = extend_lpoly(zeta_oracle(curve, budget=budget, seed=seed), k)
    L1 = zeta_oracle(pair.X1, budget=budget, seed=seed)
    L2 = zeta_oracle(pair.X2, budget=budget, seed=seed)
    c1, c2 = L1.coeffs(), L2.coeffs()
    prod = polys._int_poly_mul(c1, c2)
    q_split = curve.F.q ** k
    report = {
        "q": curve.F.q,
        "splitting_degree": k,
        "L_C": LC.coeffs(),
        "L_X1": c1,
        "L_X2": c2,
        "equal": prod == LC.coeffs(),
        # 2g-th roots of unity in the splitting field allow a finer split
        "finer_split_possible": (q_split - 1) % (2 * curve.g) == 0,
    }
    if not report["equal"]:
        raise MismatchDetected(f"L_C != L_X1*L_X2: {report}")
    return report
