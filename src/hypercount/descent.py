"""Moving L-polynomials between F_q and F_{q^n}.

Going up is exact: if the inverse roots over F_q are beta_1..beta_2g,
the inverse roots over F_{q^k} are their k-th powers, so the extended
coefficients fall out of Newton's identities with no counting at all.
Going down loses the individual roots, so each descender here returns
a finite candidate list: the tuples that re-extend to its input
exactly.  Pruning that list is the counting driver's job; the Weil
bounds it starts with are kept here: coefficient bounds and the
Hasse-Weil interval on L(1).  Both descenders work mod an auxiliary
prime l and split polynomials there with polys.  Genus 4 has a
closed-form route: a_1 is among the roots (polys.roots_in_field) of an
even degree-16 elimination polynomial.  The generic route factors
(polys.factor) the big field's real Weil polynomial composed with a
Dickson polynomial; the real Weil polynomial below is among the
degree-g divisors.
"""

from math import comb, isqrt

from . import polys
from .config import DEFAULT_SEED
from .curves import LPoly, lpoly_from_counts
from .errors import AmbiguousResult, BudgetExceeded, NoCandidateSurvives
from .fields import introot, make_prime_field, next_prime

# DFS node budget for the divisor knapsack, and how many primes l to
# try before giving up; blown budgets raise BudgetExceeded, never guess.
_ENUM_CAP = 200_000
_PRIME_RETRIES = 4


def extend_lpoly(L, k):
    """L-polynomial of the same curve over F_{q^k}.

    Raising inverse roots to the k-th power turns power sums s_j into
    s_{kj}; rebuilding elementary symmetric functions from those is
    Newton again.  Exact for any integer L, not just genuine curves.
    """
    if k < 1:
        raise ValueError("extension degree must be positive")
    if k == 1:
        return LPoly(L.q, L.g, L.a)
    s = L.power_sums(k * L.g)
    qk = L.q ** k
    counts = [qk ** j + 1 - s[k * j - 1] for j in range(1, L.g + 1)]
    return lpoly_from_counts(qk, L.g, counts)


class CandidateSet:
    """Tuples (a_1..a_g) over F_q still in the running; never empty.

    The screens pass these along, and a counting algorithm returns one:
    split Jacobians can tie every filter, so a result may hold more than
    one tuple.  status says which case occurred, and the transcript
    records what was counted and how each pruning stage went.
    """

    __slots__ = ("q", "g", "tuples", "transcript")

    def __init__(self, q, g, tuples, transcript=None):
        self.q = q
        self.g = g
        self.tuples = [tuple(int(v) for v in t) for t in tuples]
        if not self.tuples:
            raise NoCandidateSurvives(
                "a candidate set needs at least one tuple")
        self.transcript = list(transcript or [])

    def __len__(self):
        return len(self.tuples)

    def __iter__(self):
        return iter(self.tuples)

    @property
    def status(self):
        return "unique" if len(self.tuples) == 1 else "ambiguous"

    @property
    def coefficients(self):
        if len(self.tuples) != 1:
            raise AmbiguousResult(self.tuples)
        return self.tuples[0]

    def lpoly(self):
        return LPoly(self.q, self.g, self.coefficients)

    def order(self):
        return self.lpoly().order()

    def __repr__(self):
        return (f"CandidateSet(q={self.q}, g={self.g}, {self.status}, "
                f"{len(self.tuples)} tuple(s))")


def _coeff_bounds_ok(t, q, g):
    # |a_i| <= binom(2g, i) q^(i/2), compared as squares to stay exact
    return all(t[i - 1] ** 2 <= comb(2 * g, i) ** 2 * q ** i
               for i in range(1, g + 1))


def _order_in_interval(N, q, g):
    # (sqrt(q) -+ 1)^(2g) = A -+ B sqrt(q) with A, B >= 0 integers
    A = sum(comb(2 * g, i) * q ** ((2 * g - i) // 2)
            for i in range(0, 2 * g + 1, 2))
    B = sum(comb(2 * g, i) * q ** ((2 * g - i - 1) // 2)
            for i in range(1, 2 * g + 1, 2))
    if N < A and (A - N) ** 2 > B * B * q:
        return False
    if N > A and (N - A) ** 2 > B * B * q:
        return False
    return True


def weil_filter(cands):
    """Drop tuples violating coefficient bounds or the L(1) interval."""
    kept = []
    for t in cands.tuples:
        if not _coeff_bounds_ok(t, cands.q, cands.g):
            continue
        N = LPoly(cands.q, cands.g, t).order()
        if N <= 0 or not _order_in_interval(N, cands.q, cands.g):
            continue
        kept.append(t)
    if not kept:
        raise NoCandidateSurvives("no tuple satisfies the Weil constraints")
    return CandidateSet(cands.q, cands.g, kept)


def a1_elimination_coeffs(a12, a22, a32, a42, q):
    """Even-part coefficients [c0, c2, ..., c14] of the degree-16
    integer polynomial whose roots include a_1.

    Eliminating a_2, a_3, a_4 from the four degree-2 extension
    relations leaves the single constraint
    a_1^16 + sum_i c_{2i} a_1^{2i} = 0.  Constants are fixed; the test
    suite checks root membership on oracle data.
    """
    c0 = (128 * q ** 4 - 128 * a12 * q ** 3 + 32 * a12 ** 2 * q ** 2
          + 128 * a32 * q - 64 * a12 * a22 * q + 16 * a12 ** 3 * q
          - 64 * a42 + 16 * a22 ** 2 - 8 * a12 ** 2 * a22 + a12 ** 4) ** 2
    c2 = (-131072 * q ** 7 + 163840 * a12 * q ** 6 - 32768 * a22 * q ** 5
          - 65536 * a12 ** 2 * q ** 5 - 81920 * a32 * q ** 4
          + 45056 * a12 * a22 * q ** 4 + 5120 * a12 ** 3 * q ** 4
          + 65536 * a42 * q ** 3 + 49152 * a12 * a32 * q ** 3
          - 16384 * a22 ** 2 * q ** 3 - 12288 * a12 ** 2 * a22 * q ** 3
          + 2048 * a12 ** 4 * q ** 3 - 49152 * a12 * a42 * q ** 2
          + 4096 * a12 ** 2 * a32 * q ** 2 + 8192 * a12 * a22 ** 2 * q ** 2
          - 5120 * a12 ** 3 * a22 * q ** 2 + 768 * a12 ** 5 * q ** 2
          + 16384 * a22 * a42 * q - 16384 * a32 ** 2 * q
          + 4096 * a12 * a22 * a32 * q - 1024 * a12 ** 3 * a32 * q
          - 4096 * a22 ** 3 * q + 4096 * a12 ** 2 * a22 ** 2 * q
          - 1280 * a12 ** 4 * a22 * q + 128 * a12 ** 6 * q
          + 8192 * a32 * a42 - 6144 * a12 * a22 * a42
          + 1536 * a12 ** 3 * a42 + 2048 * a22 ** 2 * a32
          - 1024 * a12 ** 2 * a22 * a32 + 128 * a12 ** 4 * a32
          - 512 * a12 * a22 ** 3 + 384 * a12 ** 3 * a22 ** 2
          - 96 * a12 ** 5 * a22 + 8 * a12 ** 7)
    c4 = (253952 * q ** 6 - 233472 * a12 * q ** 5 + 47104 * a22 * q ** 4
          + 65024 * a12 ** 2 * q ** 4 + 57344 * a32 * q ** 3
          - 26624 * a12 * a22 * q ** 3 - 5632 * a12 ** 3 * q ** 3
          - 61440 * a42 * q ** 2 - 12288 * a12 * a32 * q ** 2
          + 7168 * a22 ** 2 * q ** 2 - 2048 * a12 ** 2 * a22 * q ** 2
          + 1344 * a12 ** 4 * q ** 2 + 22528 * a12 * a42 * q
          - 2048 * a22 * a32 * q - 2560 * a12 ** 2 * a32 * q
          + 3584 * a12 * a22 ** 2 * q - 1280 * a12 ** 3 * a22 * q
          + 96 * a12 ** 5 * q - 7168 * a22 * a42 + 1280 * a12 ** 2 * a42
          + 4096 * a32 ** 2 - 2048 * a12 * a22 * a32 + 512 * a12 ** 3 * a32
          - 256 * a22 ** 3 + 576 * a12 ** 2 * a22 ** 2
          - 240 * a12 ** 4 * a22 + 28 * a12 ** 6)
    c6 = (-204800 * q ** 5 + 136192 * a12 * q ** 4 - 16384 * a22 * q ** 3
          - 29696 * a12 ** 2 * q ** 3 - 12288 * a32 * q ** 2
          + 1024 * a12 * a22 * q ** 2 + 4096 * a12 ** 3 * q ** 2
          + 20480 * a42 * q - 1024 * a12 * a32 * q + 1024 * a22 ** 2 * q
          - 320 * a12 ** 4 * q - 2560 * a12 * a42 - 1024 * a22 * a32
          + 768 * a12 ** 2 * a32 + 384 * a12 * a22 ** 2
          - 320 * a12 ** 3 * a22 + 56 * a12 ** 5)
    c8 = (79104 * q ** 4 - 38144 * a12 * q ** 3 + 512 * a22 * q ** 2
          + 7104 * a12 ** 2 * q ** 2 + 256 * a32 * q + 640 * a12 * a22 * q
          - 800 * a12 ** 3 * q - 2176 * a42 + 512 * a12 * a32
          + 96 * a22 ** 2 - 240 * a12 ** 2 * a22 + 70 * a12 ** 4)
    c10 = (-15360 * q ** 3 + 5376 * a12 * q ** 2 + 256 * a22 * q
           - 768 * a12 ** 2 * q + 128 * a32 - 96 * a12 * a22
           + 56 * a12 ** 3)
    c12 = 1472 * q ** 2 - 352 * a12 * q - 16 * a22 + 28 * a12 ** 2
    c14 = 8 * a12 - 64 * q
    return [c0, c2, c4, c6, c8, c10, c12, c14]


def genus4_descend(Lnk, kj, seed=DEFAULT_SEED):
    """Tuples (a_1..a_4) over F_q whose L extends to Lnk over F_{q^2}.

    a_1 candidates are roots of the even degree-16 elimination
    polynomial over F_l, l the smallest prime with l^2 > 256 q; the
    symmetric lift is then unique on |a_1| <= 8 sqrt(q).  The a_1 = 0
    case sits outside that derivation (it divided by a_1), so it gets
    its own branch whenever a_{1,2} is even.  Only tuples that re-extend
    to Lnk exactly come back, possibly none.
    """
    if Lnk.g != 4 or kj != 2:
        raise ValueError("the eliminant descends genus 4 by degree 2")
    q = isqrt(Lnk.q)
    if q * q != Lnk.q:
        raise ValueError("field size is not a perfect square")
    a12, a22, a32, a42 = Lnk.a
    tuples = []

    def push(t):
        if t in tuples:
            return
        if extend_lpoly(LPoly(q, 4, t), 2).a != Lnk.a:
            return
        tuples.append(t)

    l = next_prime(isqrt(256 * q))
    while l * l <= 256 * q:
        l = next_prime(l)
    Fl = make_prime_field(l)
    poly = [Fl.zero] * 17
    for i, c in enumerate(a1_elimination_coeffs(a12, a22, a32, a42, q)):
        poly[2 * i] = Fl.coerce(c)
    poly[16] = Fl.one
    a1s = set()
    for r in polys.roots_in_field(Fl, poly, seed=seed):
        v = r if 2 * r <= l else r - l
        if v != 0 and v * v <= 64 * q:
            a1s.add(v)

    for a1 in sorted(a1s):
        if (a12 + a1 * a1) % 2:
            continue
        a2 = (a12 + a1 * a1) // 2
        # u = 2 a_4 solves u^2 + 2Bu + 4C = 0
        B = (a2 * a2 - a22) - 2 * (a2 - q) * a1 * a1
        fourC = (4 * (a2 * a2 * q - a22 * q + a32 - 2 * a2 * q * q)
                 * a1 * a1 + (a2 * a2 - a22) ** 2)
        disc = B * B - fourC
        if disc < 0:
            continue
        rt = isqrt(disc)
        if rt * rt != disc:
            continue
        for u in {-B + rt, -B - rt}:
            if u % 2:
                continue
            a4 = u // 2
            num = a2 * a2 + 2 * a4 - a22
            if num % (2 * a1):
                continue
            a3 = num // (2 * a1)
            push((a1, a2, a3, a4))

    if a12 % 2 == 0:
        # a1 = 0 forces a2; the a4 quadratic degenerates to a double root
        a2 = a12 // 2
        if (a22 - a2 * a2) % 2 == 0:
            a4 = (a22 - a2 * a2) // 2
            t3sq = 2 * q * q * a2 + 2 * a2 * a4 - a32
            if t3sq >= 0:
                rt = isqrt(t3sq)
                if rt * rt == t3sq:
                    for a3 in {rt, -rt}:
                        push((0, a2, a3, a4))
    return tuples


def _dickson_int(n, alpha):
    """D_n(x, alpha) over the integers, ascending coefficients."""
    if n == 0:
        return [2]
    prev, cur = [2], [0, 1]
    for _ in range(n - 1):
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= alpha * c
        prev, cur = cur, nxt
    return cur


def _compose_int(outer, inner):
    """outer(inner(x)) over the integers, Horner style."""
    acc = [outer[-1]]
    for c in reversed(outer[:-1]):
        acc = polys._int_poly_mul(acc, inner)
        acc[0] += c
    return acc


def _real_weil_poly(L):
    """Monic integer h of degree g with h(beta + q/beta) = 0 for every
    inverse root beta.

    T^(-g) chi(T) = h(T + q/T); in the Dickson basis D_d(U, q) the
    coefficients of h are read straight off chi's upper half.
    """
    C = L.chi_coeffs()
    h = [C[L.g]] + [0] * L.g
    for d in range(1, L.g + 1):
        for i, c in enumerate(_dickson_int(d, L.q)):
            h[i] += C[L.g + d] * c
    return h


def _chi_from_real(h, q):
    """chi(T) = T^g h(T + q/T), ascending integer coefficients."""
    g = len(h) - 1
    c = [0] * (2 * g + 1)
    for j in range(g + 1):
        for i in range(j + 1):
            c[g + j - 2 * i] += h[j] * comb(j, i) * q ** i
    return c


def _degree_g_products(F, factors, g, cap):
    """All monic degree-g products of the given factors, respecting
    multiplicities.  Returns None when the DFS budget runs out."""
    factors = sorted(factors, key=lambda im: polys.degree(im[0]))
    degs = [polys.degree(irr) for irr, _ in factors]
    n = len(factors)
    suffix = [0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix[i] = suffix[i + 1] + degs[i] * factors[i][1]
    out = []
    budget = [cap]

    def rec(i, remaining, cur):
        if budget[0] <= 0:
            return
        budget[0] -= 1
        if remaining == 0:
            out.append(cur)
            return
        if i == n or suffix[i] < remaining:
            return
        prod = cur
        for cnt in range(factors[i][1] + 1):
            if cnt:
                if degs[i] * cnt > remaining:
                    break
                prod = polys.mul(F, prod, factors[i][0])
            rec(i + 1, remaining - degs[i] * cnt, prod)

    rec(0, g, [F.one])
    return None if budget[0] <= 0 else out


def generic_descend(Lnk, kj, seed=DEFAULT_SEED):
    """Tuples for L over F_Q given L over F_{Q^kj}, kj prime.

    Works through the real Weil polynomial: if h has the target roots
    u_i = beta_i + Q/beta_i, then the known h_n has roots D_kj(u_i, Q),
    so every u_i is a root of H(U) = h_n(D_kj(U, Q)).  The candidate
    h's are the monic degree-g divisors of H mod l, lifted symmetrically
    (l is big enough to make those lifts unique inside the Weil box).
    Only tuples that re-extend to Lnk exactly come back, possibly none.
    """
    g = Lnk.g
    if kj == 1:
        return [Lnk.a]
    Q = introot(Lnk.q, kj)
    if Q ** kj != Lnk.q:
        raise ValueError("field size is not a perfect kj-th power")

    H = _compose_int(_real_weil_poly(Lnk), _dickson_int(kj, Q))

    # l must make symmetric lifts of h's coefficients unique:
    # |e_j(u)| <= binom(g,j) (2 sqrt(Q))^j, so need l^2 > 4 binom^2 4^j Q^j
    lmin = len(H)
    for j in range(1, g + 1):
        lmin = max(lmin, isqrt(4 * comb(g, j) ** 2 * 4 ** j * Q ** j) + 1)
    l = next_prime(lmin - 1)

    survivors = []
    for attempt in range(_PRIME_RETRIES):
        Fl = make_prime_field(l)
        Hl = [Fl.coerce(c) for c in H]
        divisors = _degree_g_products(Fl, polys.factor(Fl, Hl, seed), g,
                                      _ENUM_CAP)
        if divisors is None:
            l = next_prime(l)
            continue
        for D in divisors:
            h = [c if 2 * c <= l else c - l for c in D]
            ok = True
            for j in range(1, g + 1):
                if h[g - j] ** 2 > 4 ** j * comb(g, j) ** 2 * Q ** j:
                    ok = False
                    break
            if not ok:
                continue
            c = _chi_from_real(h, Q)
            cand = LPoly(Q, g, [c[2 * g - m] for m in range(1, g + 1)])
            if extend_lpoly(cand, kj).a != Lnk.a:
                continue
            if cand.a not in survivors:
                survivors.append(cand.a)
        break
    else:
        raise BudgetExceeded("divisor enumeration blew the DFS budget "
                             "for %d primes" % _PRIME_RETRIES)
    return survivors
