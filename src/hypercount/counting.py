"""Top-level point counting for the family y^2 = x^(2g+1) + a x^(g+1) + b x.

Every algorithm here has the same shape: count something small over the
field where the Jacobian splits (an elliptic trace, a genus-2 quotient,
the normalized quotient pair), assemble the L-polynomial there, and
walk it back down to the base field one prime degree at a time.  Wrong
candidates are pruned by Weil bounds, then by one tie-break ladder: a
point count, chi mod p, and multiplying random Jacobian divisors with
the order each candidate predicts.  Each stage appends to a transcript
so ambiguous outputs stay auditable.
"""

import random

from . import polys
from .cartier import chi_mod_p
from .config import DEFAULT_SEED, DEFAULT_TRIALS, default_budget
from .curves import (LPoly, check_oracle_budget, count_points, curve_from_ab,
                     curve_from_f, jacobian_order_check,
                     jacobian_order_screen, zeta_oracle)
from .decomp import elliptic_quotient, quotients_normalized
from .descent import (CandidateSet, extend_lpoly, generic_descend,
                      genus4_descend, weil_filter)
from .errors import (BadGenus, BudgetExceeded, CharacteristicDividesGenus,
                     InternalError, NoCandidateSurvives,
                     NonResidueDiscriminant, NotPrimeField,
                     SingularSpecialization)
from .fields import (FieldElement, embed, introot, make_extension,
                     make_prime_field, nth_root, nth_root_field_degree,
                     prime_factors, project)

SKIPPED = "skipped"

_BSGS_CAP = 10 ** 14


# --- elliptic trace providers ---

class TraceProvider:
    """How to get elliptic Frobenius traces: full count or interval bsgs.

    budget caps the field size the method accepts; None picks the
    method's default (the global count budget for naive_count, 10^14
    for bsgs).  Kept deliberately small so a faster engine can be
    plugged in without touching the algorithms above it.
    """

    __slots__ = ("method", "budget")

    def __init__(self, method="naive_count", budget=None):
        if method not in ("naive_count", "bsgs"):
            raise ValueError(f"unknown trace method {method!r}")
        self.method = method
        if budget is None:
            budget = default_budget() if method == "naive_count" else _BSGS_CAP
        self.budget = int(budget)

    def __repr__(self):
        return f"TraceProvider({self.method!r}, budget={self.budget})"


def frobenius_trace(E, provider=None):
    """Trace t with #E(F_q) = q + 1 - t for a genus-1 curve."""
    if E.g != 1:
        raise BadGenus(f"trace provider expects genus 1, got {E.g}")
    if provider is None:
        provider = TraceProvider()
    q = E.F.q
    if q > provider.budget:
        raise BudgetExceeded(
            f"field size {q} exceeds the {provider.method} budget {provider.budget}")
    if provider.method == "naive_count":
        N = count_points(E, 1, provider.budget)
    else:
        N = _bsgs_group_order(E)
    t = q + 1 - N
    if t * t > 4 * q:
        raise InternalError("trace escaped the Hasse interval")
    return t


class _AffineCurve:
    """Chord-and-tangent group law on y^2 = x^3 + a2 x^2 + a4 x + a6.

    Points are (x, y) pairs of raw field elements and None is the point
    at infinity.  Only the field descriptor's arithmetic is used, so any
    odd-characteristic field works; keeping a2 means the genus-1 family
    model needs no change of variables, even at p = 3.
    """

    def __init__(self, E):
        F = E.F
        self.F = F
        self.f = E.f
        self.a4, self.a2 = E.f[1], E.f[2]
        self.three = F.from_int(3)

    def add(self, P, Q):
        if P is None:
            return Q
        if Q is None:
            return P
        F = self.F
        (x1, y1), (x2, y2) = P, Q
        if x1 == x2:
            if F.add(y1, y2) == F.zero:
                return None
            num = F.add(F.mul(F.add(F.mul(self.three, x1),
                                    F.add(self.a2, self.a2)), x1), self.a4)
            lam = F.div(num, F.add(y1, y1))
        else:
            lam = F.div(F.sub(y2, y1), F.sub(x2, x1))
        x3 = F.sub(F.sub(F.mul(lam, lam), self.a2), F.add(x1, x2))
        return (x3, F.sub(F.mul(lam, F.sub(x1, x3)), y1))

    def mul(self, n, P):
        """n * P for n >= 0, by double-and-add."""
        acc = None
        while n:
            if n & 1:
                acc = self.add(acc, P)
            P = self.add(P, P)
            n >>= 1
        return acc

    def random_point(self, rng):
        """A random affine point, or None if 64 draws of x found none (a
        tiny field can have no affine point at all)."""
        F = self.F
        for _ in range(64):
            x = F.rand(rng)
            y = F.sqrt(polys.evaluate(F, self.f, x))
            if y is not None:
                return (x, F.neg(y) if rng.getrandbits(1) else y)
        return None


def _kill_multiples(G, P, lo, width):
    """All n in [lo, lo + width) with n*P = 0, by baby-step giant-step.

    Baby steps hold j*P for 0 <= j <= m, keyed by x-coordinate, so one
    giant step at centre c tests the 2m + 1 values c - m .. c + m: c*P
    equals +j*P or -j*P exactly when (c - j)*P or (c + j)*P vanishes.
    """
    m = introot(width // 2, 2) + 1
    baby = {}
    R = None
    for j in range(m + 1):
        x, y = R or (None, None)
        baby.setdefault(x, []).append((j, y))
        R = G.add(R, P)
    giant = G.mul(2 * m + 1, P)
    acc = G.mul(lo + m, P)
    hits = set()
    for c in range(lo + m, lo + width + m, 2 * m + 1):
        x, y = acc or (None, None)
        for j, yj in baby.get(x, ()):
            if y == yj:
                hits.add(c - j)
            if yj is None or y == G.F.neg(yj):
                hits.add(c + j)
        acc = G.add(acc, giant)
    return sorted(n for n in hits if lo <= n < lo + width)


def _bsgs_group_order(E):
    """#E by searching the Hasse interval; kills the ambiguity with more points.

    Each random point P pins #E to the multiples of ord(P) inside the
    interval; intersecting those sets over several points almost always
    leaves one value.  A tiny group exponent can keep the tie alive, in
    which case the naive count takes over (if it fits the budget).
    """
    F = E.F
    q = F.q
    G = _AffineCurve(E)
    s = introot(4 * q, 2)
    lo = q + 1 - s
    width = 2 * s + 1
    cands = None
    for attempt in range(16):
        rng = random.Random(repr((DEFAULT_SEED, "bsgs", F.p, F.k, attempt)))
        P = G.random_point(rng)
        if P is None:
            continue
        hits = _kill_multiples(G, P, lo, width)
        if not hits:
            raise InternalError("no candidate order killed the sampled point")
        cands = set(hits) if cands is None else cands & set(hits)
        if len(cands) == 1:
            return cands.pop()
    if q <= default_budget():
        return count_points(E, 1)
    raise BudgetExceeded(
        f"bsgs left {len(cands or ())} order candidates and the naive "
        f"fallback exceeds the count budget")


# --- results ---

def _refilter(cs, keep, transcript, label):
    if not keep:
        raise NoCandidateSurvives(f"{label} eliminated every tuple")
    if len(keep) < len(cs):
        transcript.append(f"{label}: {len(cs)} -> {len(keep)}")
    return CandidateSet(cs.q, cs.g, keep)


def _order_check_prune(cands, curve, trials, seed):
    """Keep tuples whose predicted group order kills random divisors.

    A wrong tuple survives base-field sampling whenever its order is a
    multiple of the group exponent, and no number of trials changes
    that.  So while several tuples remain, the same test reruns over
    F_{q^2} and F_{q^3} (tower degree capped to keep the arithmetic
    cheap), where the exponents differ; the true tuple is safe because
    its extended order is the actual group order there.
    """
    kept = []
    for t in cands.tuples:
        N = LPoly(cands.q, cands.g, t).order()
        if jacobian_order_check(curve, N, trials, seed):
            kept.append(t)
    m = 2
    while len(kept) > 1 and m <= 3 and curve.F.k * m <= 12:
        ext = curve.base_extend(m, seed=seed)
        still = []
        for t in kept:
            Nm = extend_lpoly(LPoly(cands.q, cands.g, t), m).order()
            if Nm > 0 and jacobian_order_check(ext, Nm, trials, seed):
                still.append(t)
        kept = still
        m += 1
    if not kept:
        raise NoCandidateSurvives("order checks eliminated every tuple")
    return CandidateSet(cands.q, cands.g, kept)


def _break_tie(cs, curve, transcript, trials, seed):
    """Narrow the tuples of curve over its own field F_q.

    Three tiebreakers in turn, cheapest conclusive first and none able
    to drop the true tuple; each runs only while two or more tuples
    remain, so a lone set passes untouched.  One point count on the
    curve pins the trace exactly (skipped over budget).  Chi mod p
    through the Cartier-Manin route pins the residue class, and runs
    only over a prime field: over F_{p^k} it falls back to dense
    polynomial products (skipped over budget too).  Last come the order
    checks over F_q and small extensions.
    """
    q, g = cs.q, cs.g
    if len(cs) > 1:
        try:
            N1 = count_points(curve, 1, seed=seed)
        except BudgetExceeded:
            pass
        else:
            keep = [t for t in cs.tuples
                    if q + 1 - LPoly(q, g, t).power_sums(1)[0] == N1]
            cs = _refilter(cs, keep, transcript, "trace screen")
    if len(cs) > 1 and curve.F.k == 1:
        try:
            want = chi_mod_p(curve).coeffs
        except BudgetExceeded:
            pass
        else:
            p = curve.F.p
            keep = [t for t in cs.tuples
                    if [c % p for c in LPoly(q, g, t).chi_coeffs()] == want]
            cs = _refilter(cs, keep, transcript, "chi mod p screen")
    if len(cs) > 1:
        before = len(cs)
        cs = _order_check_prune(cs, curve, trials, seed)
        if len(cs) < before:
            transcript.append(
                f"extension order checks: {before} -> {len(cs)}")
    return cs


def _final_result(q, g, tuples, transcript, curve, trials, seed):
    """Wrap surviving tuples over F_q, after one last Weil filter and
    the tie-break ladder on curve."""
    cs = weil_filter(CandidateSet(q, g, tuples))
    if len(cs) < len(tuples):
        transcript.append(f"final Weil filter: {len(tuples)} -> {len(cs)}")
    cs = _break_tie(cs, curve, transcript, trials, seed)
    return CandidateSet(q, g, cs.tuples, transcript)


def _prime_factorization(n):
    """Prime factors with multiplicity, ascending: 12 -> [2, 2, 3]."""
    out = []
    for p in prime_factors(n):
        m = n
        while m % p == 0:
            out.append(p)
            m //= p
    return sorted(out)


# --- the general splitting-field algorithm ---

def _odd_flipped(a):
    """a_1..a_g of L(-T): the odd coefficients change sign."""
    return [-v if i % 2 == 0 else v for i, v in enumerate(a)]


def chi_generic(curve, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """chi of a family curve by splitting-field assembly plus descent.

    The quotient pair of the normal form y^2 = x^(2g+1) + c x^(g+1) + x,
    c = a/sqrt(b), is counted over F_q[sqrt(b)]; the product is pushed
    up to F_{q^K} (K the degree of b^(1/2g), where the curve and its
    normal form agree up to a quadratic twist) and then walked back down
    to F_q one prime degree at a time.  For even g only X1 is counted:
    x -> -x carries it to X2 twisted by -1 (D_g is even), so L_X2(T) is
    L_X1(T) when -1 is a square in F_q[sqrt(b)] and L_X1(-T) otherwise.

    Each descent step runs the degree-16 eliminant at g = 4 and the
    real-Weil-polynomial route otherwise on every parent tuple; the
    union of what re-extends faces the Weil filter and then the
    tie-break ladder (_break_tie) on the curve over the field it landed
    in.  The top tuple is exact, every descender returns all tuples that
    re-extend, and no screen drops the truth, so a lone survivor is the
    truth and passes the ladder untouched.  The last step lands on F_q,
    so its ladder is the final one.
    """
    if not curve.is_family:
        raise ValueError("chi_generic needs the two-parameter family shape")
    F, g = curve.F, curve.g
    if not 2 <= g <= 7:
        raise BadGenus(f"supported genus range is 2..7, got {g}")
    transcript = []

    K = nth_root_field_degree(F, curve.b, 2 * g)
    KF = make_extension(F, K, seed=seed)
    beta = nth_root(F, curve.b, 2 * g, KF)
    sb_big = KF.pow(beta, g)
    # sqrt(b) generates at most a quadratic extension; count there
    if F.legendre(curve.b) == 1:
        q1f = F
    else:
        q1f = make_extension(F, 2, seed=seed)
    sb = sb_big if q1f is KF else project(sb_big, KF, q1f)
    if sb is None:
        raise InternalError("sqrt(b) escaped its quadratic field")
    c = q1f.div(embed(curve.a, F, q1f), sb)
    pair = quotients_normalized(q1f, g, c)
    check_oracle_budget(pair.X1)
    if g % 2:
        check_oracle_budget(pair.X2)
    L1 = zeta_oracle(pair.X1, seed=seed)
    if g % 2:
        L2 = zeta_oracle(pair.X2, seed=seed)
    elif q1f.q % 4 == 1:
        L2 = L1
    else:
        L2 = LPoly(q1f.q, L1.g, _odd_flipped(L1.a))
    transcript.append(
        f"quotients of the normal form over F_q^{q1f.k // F.k}: "
        f"genus {pair.X1.g} and {pair.X2.g} counted")

    prod = polys._int_poly_mul(L1.coeffs(), L2.coeffs())
    Ltop = extend_lpoly(LPoly(q1f.q, g, prod[1:g + 1]), (F.k * K) // q1f.k)
    a_top = list(Ltop.a)
    # x -> beta*x scales the right side by beta^(2g+1); a nonsquare
    # scale is exactly the quadratic twist, flipping odd coefficients
    if KF.legendre(KF.mul(KF.pow(beta, 2 * g), beta)) == -1:
        a_top = _odd_flipped(a_top)
        transcript.append("twist correction over the splitting field: "
                          "odd coefficients flipped")
    transcript.append(f"splitting degree K = {K}; L over F_q^{K} assembled")

    descend = genus4_descend if g == 4 else generic_descend
    tuples = [tuple(a_top)]
    n = K
    for kj in _prime_factorization(K):
        i = n // kj
        lifts = []
        for t in tuples:
            for u in descend(LPoly(F.q ** n, g, list(t)), kj, seed):
                if u not in lifts:
                    lifts.append(u)
        try:
            cs = weil_filter(CandidateSet(F.q ** i, g, lifts))
        except NoCandidateSurvives:
            raise NoCandidateSurvives(
                f"descent from F_q^{n} to F_q^{i} eliminated every tuple"
            ) from None
        cs = _break_tie(cs, curve.base_extend(i, seed=seed), transcript,
                        trials, seed)
        transcript.append(
            f"descend by {kj}: {len(tuples)} -> {len(cs)} candidates")
        tuples, n = cs.tuples, i
    return CandidateSet(F.q, g, tuples, transcript)


# --- genus 3 through the elliptic quotient and Legendre traces ---

def _coefficient_field(a, b):
    if not isinstance(a, FieldElement) or not isinstance(b, FieldElement):
        raise TypeError("coefficients must be field elements")
    if a.desc is not b.desc:
        raise ValueError("coefficients live in different fields")
    return a.desc


def chi_genus3(a, b, provider=None, trials=DEFAULT_TRIALS, seed=DEFAULT_SEED):
    """chi (degree 6) of y^2 = x^7 + a x^4 + b x over a prime field.

    The Jacobian splits as E x A with E the elliptic quotient
    y^2 = x^3 + a x^2 + b x, and A is, up to twist, E6 x E6 or its
    restriction of scalars, E6: y^2 = x^3 - 3x + 2c, c = -a/(2 sqrt(b)).
    So chi_A has closed forms in the trace t6 of E6 (_chi_a_pool), and
    all arithmetic stays over F_p: when sqrt(b) is not in F_p the
    F_{p^2} trace is read off a curve over F_p (_descended_t6).  The
    pool holds the truth, so one random-divisor order check settles it
    unless a tie survives, which goes to the tie-break ladder.
    """
    F = _coefficient_field(a, b)
    if F.k != 1:
        raise NotPrimeField("the genus-3 algorithm works over prime fields")
    p = F.p
    if p == 3:
        raise CharacteristicDividesGenus("p = 3 divides g = 3")
    C = curve_from_ab(F, 3, a.rep, b.rep)
    if provider is None:
        provider = TraceProvider()
    E = elliptic_quotient(F, 3, a.rep, b.rep)
    t2 = frobenius_trace(E, provider)
    transcript = [f"t2 = {t2} for the elliptic quotient"]
    pool = _chi_a_pool(F, a.rep, b.rep, provider, transcript)

    chiE_at_1 = 1 - t2 + p
    orders = {}
    for b1, b2 in pool:
        N = chiE_at_1 * (1 - b1 + b2 - b1 * p + p * p)
        if N > 0:
            orders[b1, b2] = N
    passed = set(jacobian_order_screen(C, list(orders.values()), 1, seed))
    kept = [pair for pair, N in orders.items() if N in passed]
    if not kept:
        raise NoCandidateSurvives("order check eliminated every (b1, b2) pair")
    transcript.append(f"order check: {len(pool)} -> {len(kept)} pairs")

    tuples = []
    for b1, b2 in kept:
        chiC = polys._int_poly_mul([p, -t2, 1],
                                   [p * p, -b1 * p, b2, -b1, 1])
        tuples.append((chiC[5], chiC[4], chiC[3]))
    return _final_result(p, 3, tuples, transcript, C, trials, seed)


def _twist_unit_sum(F, u, e):
    """u^e + u^(5e) lifted to -2..2; u^e is a sixth root of unity."""
    w = F.add(F.pow(u, e), F.pow(u, 5 * e))
    w = w - F.p if w > F.p // 2 else w
    if abs(w) > 2:
        raise InternalError(f"twist-unit sum {w} is not a sum of a sixth "
                            "root of unity and its inverse")
    return w


def _chi_a_pool(F, a, b, provider, transcript):
    """The (b1, b2) of chi_A = T^4 - b1 T^3 + b2 T^2 - p b1 T + p^2 that
    the closed forms in t6 allow; the true pair is always among them.

    With sqrt(b) in F_p and p = 1 mod 3, A is E6 x E6 twisted by a sixth
    root of unity zeta, and w = zeta + 1/zeta = sqrt(b)^e + sqrt(b)^(5e),
    e = (p - 1)/6: the roots of chi_A are zeta pi, pi'/zeta, pi/zeta and
    zeta pi' for pi, pi' those of E6, so b1 = (3|p) w t6 and b2 = t6^2 +
    (w^2 - 2) p.  With sqrt(b) in F_p and p = 2 mod 3, (b1, b2) is
    (0, 2p - t6^2).  With sqrt(b) outside F_p the twist holds over
    F_{p^2}: B1 = b1^2 - 2 b2 = w t6 and B2 = b2^2 - 2p b1^2 + 2p^2 =
    t6^2 + (w^2 - 2) p^2, with w the same sum there, so b2 = 2p +-
    sqrt(2p^2 + 2p B1 + B2) and b1 = +-sqrt(B1 + 2 b2), kept inside the
    Weil box.
    """
    p = F.p
    sb = F.sqrt(b)
    if sb is not None:
        c = F.div(F.neg(a), F.mul(F.from_int(2), sb))
        E6 = curve_from_f(F, [F.mul(F.from_int(2), c), F.from_int(-3),
                              F.zero, F.one])
        t6 = frobenius_trace(E6, provider)
        transcript.append(f"t6 = {t6} over F_p (sqrt(b) in F_p)")
        if p % 3 == 2:
            pool = [(0, 2 * p - t6 * t6)]
        else:
            w = _twist_unit_sum(F, sb, (p - 1) // 6)
            pool = [(F.legendre(3 % p) * w * t6, t6 * t6 + (w * w - 2) * p)]
    else:
        t6 = _descended_t6(F, a, b, provider)
        transcript.append(f"t6 = {t6} over F_p^2 (sqrt(b) not in F_p)")
        # sqrt(b)^((p^2 - 1)/6) over F_{p^2} is b^((p^2 - 1)/12) in F_p
        w = _twist_unit_sum(F, b, (p * p - 1) // 12)
        B1 = w * t6
        B2 = t6 * t6 + (w * w - 2) * p * p
        pool = []
        for b2 in _signed_isqrt(2 * p * p + 2 * p * B1 + B2, 2 * p):
            for b1 in _signed_isqrt(B1 + 2 * b2, 0):
                if b1 * b1 <= 16 * p and abs(b2) <= 6 * p:
                    pool.append((b1, b2))
        if p % 3 == 2:
            # x -> x^3 permutes F_p and chi(x) = chi(x^3), so x -> x^3
            # carries #C(F_p) onto #E(F_p): the trace of A, b1, is 0
            pool = [pair for pair in pool if pair[0] == 0]
    transcript.append(
        f"(b1, b2) pairs from the closed form in t6: {len(pool)}")
    return pool


def _signed_isqrt(n, centre):
    """centre - r and centre + r for the integer r = sqrt(n), if any."""
    r = introot(n, 2) if n >= 0 else -1
    if r < 0 or r * r != n:
        return []
    return sorted({centre - r, centre + r})


def _descended_t6(F, a, b, provider):
    """Trace over F_{p^2} of y^2 = x^3 - 3x + 2c, c = -a/(2 sqrt(b)), b a
    nonsquare mod p, computed over F_p.

    c lies outside F_p, but s = c^2 = a^2/(4b) lies in it, and x -> c x,
    y -> c^(3/2) y carries E': y^2 = x^3 - 3s x + 2s^2 to that curve.  So
    the curve is E' twisted by c, a square in F_{p^2} exactly when its
    norm -s is a square mod p, and t6 = chi_p(-s) (t'^2 - 2p) with t'
    the trace of E' over F_p.  At a = 0 the curve is y^2 = x^3 - 3x
    itself, defined over F_p.
    """
    p = F.p
    if a == F.zero:
        Ed = curve_from_f(F, [F.zero, F.from_int(-3), F.zero, F.one])
        return frobenius_trace(Ed, provider) ** 2 - 2 * p
    s = F.div(F.mul(a, a), F.mul(F.from_int(4), b))
    Ed = curve_from_f(F, [F.mul(F.from_int(2), F.mul(s, s)),
                          F.mul(F.from_int(-3), s), F.zero, F.one])
    t = frobenius_trace(Ed, provider)
    return F.legendre(F.neg(s)) * (t * t - 2 * p)


# --- Legendre-polynomial congruence checkers ---

def legendre_trace_congruence(p, c, variant):
    """One identity P_m(c) = (character) * trace mod p, checked directly.

    variant picks the elliptic family (2, 3, 4 or 6) and with it the
    index m and the quadratic character.  Returns True or False, or
    "skipped" when the curve degenerates (c = +-1 in every family).
    """
    if variant not in (2, 3, 4, 6):
        raise ValueError(f"variant must be one of 2, 3, 4, 6, got {variant}")
    if p <= 3 or (variant == 6 and p <= 5):
        raise ValueError(f"p = {p} is too small for variant {variant}")
    F = make_prime_field(p)
    cc = c.rep if isinstance(c, FieldElement) else F.coerce(c)
    if cc == F.one or cc == F.from_int(-1):
        return SKIPPED

    two = F.from_int(2)
    if variant == 2:
        idx = (p - 1) // 2
        char = F.legendre((-6) % p)
        c2 = F.mul(cc, cc)
        A = F.mul(F.from_int(-3), F.add(c2, F.from_int(3)))
        B = F.mul(two, F.mul(cc, F.sub(c2, F.from_int(9))))
    elif variant == 3:
        idx = p // 3
        char = 1 if p % 3 == 1 else -1
        A = F.mul(F.from_int(3), F.sub(F.mul(F.from_int(4), cc), F.from_int(5)))
        B = F.mul(two, F.add(F.sub(F.mul(two, F.mul(cc, cc)),
                                   F.mul(F.from_int(14), cc)),
                             F.from_int(11)))
    elif variant == 4:
        idx = p // 4
        char = F.legendre(6 % p)
        A = F.mul(F.div(F.from_int(-3), two),
                  F.add(F.mul(F.from_int(3), cc), F.from_int(5)))
        B = F.add(F.mul(F.from_int(9), cc), F.from_int(7))
    else:
        idx = p // 6
        char = F.legendre(3 % p)
        A = F.from_int(-3)
        B = F.mul(two, cc)

    E = curve_from_f(F, [B, A, F.zero, F.one])
    t = frobenius_trace(E, TraceProvider())
    return polys.legendre_eval(F, idx, cc) == F.from_int(char * t)


def legendre_octic_congruence(p, rho):
    """The paired congruences at indices (p-1)/8 and (3p-3)/8.

    Builds the genus-2 quotient y^2 = (x+2)(D_4(x) + c) at c = -2 rho,
    reads (b1, b2) off its chi = T^4 + b1 T^3 + b2 T^2 + p b1 T + p^2,
    and matches the P-values against the roots (-b1 +- sqrt(d))/2 of
    T^2 + b1 T + b2 mod p.  The report says which sign lined up.
    """
    if p % 8 != 1:
        raise ValueError(f"needs p = 1 mod 8, got p = {p}")
    F = make_prime_field(p)
    r = rho.rep if isinstance(rho, FieldElement) else F.coerce(rho)
    if r == F.one or r == F.from_int(-1):
        raise SingularSpecialization("rho = +-1 collapses the quotient curve")
    c = F.mul(F.from_int(-2), r)
    X1 = quotients_normalized(F, 4, c).X1
    b1, b2 = zeta_oracle(X1).a
    d = (b1 * b1 - 4 * b2) % p
    P_lo = polys.legendre_eval(F, (p - 1) // 8, r)
    P_hi = polys.legendre_eval(F, (3 * p - 3) // 8, r)
    sd = F.sqrt(d)
    if sd is None:
        raise NonResidueDiscriminant(
            f"d = b1^2 - 4 b2 = {d} is not a square mod {p}")
    inv2 = F.inv(F.from_int(2))
    root_plus = F.mul(F.add(F.from_int(-b1), sd), inv2)
    root_minus = F.mul(F.sub(F.from_int(-b1), sd), inv2)
    if (P_lo, P_hi) == (root_plus, root_minus):
        sign, holds = (0 if sd == F.zero else 1), True
    elif (P_lo, P_hi) == (root_minus, root_plus):
        sign, holds = -1, True
    else:
        sign, holds = None, False
    return {
        "p": p,
        "rho": int(r),
        "b1": int(b1),
        "b2": int(b2),
        "d": int(d),
        "P_low": int(P_lo),
        "P_high": int(P_hi),
        "sign": sign,
        "holds": holds,
    }
