"""Dense univariate polynomial arithmetic over a field context.

A polynomial is a plain list of raw field elements in ascending degree with no
trailing zeros; the zero polynomial is the empty list. Every function takes
the field context F first and never mutates its arguments. F only needs the
raw-element protocol (zero/one, add/sub/neg/mul/inv, from_int, p, k, q), so
these routines work over F_p and any extension alike.
"""

import random

from .config import DEFAULT_SEED
from .errors import (DivisionByZero, IndexTooLargeForCharacteristic,
                     InternalError, ZeroPolynomial)


def trim(F, f):
    n = len(f)
    while n > 0 and f[n - 1] == F.zero:
        n -= 1
    return list(f[:n])


def degree(f):
    # zero polynomial has degree -1 by convention
    return len(f) - 1


def constant(F, c):
    return [] if c == F.zero else [c]


def x_poly(F):
    return [F.zero, F.one]


def add(F, f, g):
    n = max(len(f), len(g))
    out = []
    for i in range(n):
        a = f[i] if i < len(f) else F.zero
        b = g[i] if i < len(g) else F.zero
        out.append(F.add(a, b))
    return trim(F, out)


def neg(F, f):
    return [F.neg(c) for c in f]


def sub(F, f, g):
    return add(F, f, neg(F, g))


def scale(F, f, c):
    if c == F.zero:
        return []
    return trim(F, [F.mul(a, c) for a in f])


def mul(F, f, g):
    if not f or not g:
        return []
    out = [F.zero] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == F.zero:
            continue
        for j, b in enumerate(g):
            out[i + j] = F.add(out[i + j], F.mul(a, b))
    return trim(F, out)


def divmod_poly(F, f, g):
    g = trim(F, g)
    if not g:
        raise DivisionByZero("polynomial division by zero")
    f = trim(F, f)
    dg = degree(g)
    # powmod and rem divide by monic moduli; skip inverting their leading
    # 1, which over F_{p^k} costs a full xgcd
    inv_lc = F.one if g[-1] == F.one else F.inv(g[-1])
    q = [F.zero] * max(len(f) - dg, 0)
    r = list(f)
    while degree(r) >= dg:
        k = degree(r) - dg
        c = F.mul(r[-1], inv_lc)
        q[k] = c
        for i in range(dg + 1):
            r[k + i] = F.sub(r[k + i], F.mul(c, g[i]))
        r = trim(F, r)
    return trim(F, q), r


def quo(F, f, g):
    return divmod_poly(F, f, g)[0]


def rem(F, f, g):
    return divmod_poly(F, f, g)[1]


def monic(F, f):
    f = trim(F, f)
    if not f:
        return f
    if f[-1] == F.one:
        return f
    return scale(F, f, F.inv(f[-1]))


def gcd_poly(F, f, g):
    """Monic gcd; gcd(f, 0) = monic f."""
    a, b = trim(F, f), trim(F, g)
    while b:
        a, b = b, rem(F, a, b)
    return monic(F, a)


def xgcd_poly(F, f, g):
    """(d, u, v) with u*f + v*g = d, d monic."""
    r0, r1 = trim(F, f), trim(F, g)
    u0, u1 = [F.one], []
    v0, v1 = [], [F.one]
    while r1:
        q, r = divmod_poly(F, r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(F, u0, mul(F, q, u1))
        v0, v1 = v1, sub(F, v0, mul(F, q, v1))
    if not r0:
        return [], u0, v0
    c = F.inv(r0[-1])
    return scale(F, r0, c), scale(F, u0, c), scale(F, v0, c)


def evaluate(F, f, x):
    acc = F.zero
    for c in reversed(f):
        acc = F.add(F.mul(acc, x), c)
    return acc


def derivative(F, f):
    out = []
    for i in range(1, len(f)):
        out.append(F.mul(F.from_int(i), f[i]))
    return trim(F, out)


def is_squarefree(F, f):
    f = trim(F, f)
    if not f:
        return False
    return degree(gcd_poly(F, f, derivative(F, f))) == 0


def mulmod(F, f, g, h):
    return rem(F, mul(F, f, g), h)


def powmod(F, f, e, h):
    if e < 0:
        raise ValueError("negative exponent")
    result = [F.one]
    base = rem(F, f, h)
    while e:
        if e & 1:
            result = mulmod(F, result, base, h)
        base = mulmod(F, base, base, h)
        e >>= 1
    return result


def ddf(F, f):
    """Distinct-degree split of monic squarefree f: list of (prod, d),
    prod the product of f's irreducible factors of degree d."""
    out = []
    v = f
    xq = x_poly(F)
    d = 0
    while degree(v) > 0:
        d += 1
        if 2 * d > degree(v):
            out.append((v, degree(v)))
            break
        xq = powmod(F, xq, F.q, v)
        g = gcd_poly(F, sub(F, xq, x_poly(F)), v)
        if degree(g) > 0:
            out.append((g, d))
            v = quo(F, v, g)
            xq = rem(F, xq, v)
    return out


def edf(F, f, d, rng):
    """Equal-degree split of monic f, a product of distinct irreducibles
    of degree d, into those irreducibles (Cantor-Zassenhaus, odd q)."""
    n = degree(f)
    if n == d:
        return [f]
    e = (F.q ** d - 1) // 2
    for _ in range(200):
        r = trim(F, [F.rand(rng) for _ in range(n)])
        if degree(r) < 1:
            continue
        s = powmod(F, r, e, f)
        g = gcd_poly(F, sub(F, s, [F.one]), f)
        if 0 < degree(g) < n:
            return edf(F, g, d, rng) + edf(F, quo(F, f, g), d, rng)
    raise InternalError("equal-degree splitting failed to converge")


def factor(F, f, seed=DEFAULT_SEED):
    """Monic irreducible factors of f with multiplicity: list of (poly, m).

    The squarefree part is f / gcd(f, f'), which loses factors whose
    multiplicity the characteristic divides; deg f < p rules that out.
    """
    f = monic(F, f)
    if degree(f) >= F.p:
        raise ValueError("factor needs deg f below the characteristic")
    rng = random.Random(repr((seed, "factor", F.p, degree(f))))
    sf = quo(F, f, gcd_poly(F, f, derivative(F, f)))
    out = []
    for prod, d in ddf(F, sf):
        for irr in edf(F, prod, d, rng):
            m, t = 0, f
            while True:
                qq, rr = divmod_poly(F, t, irr)
                if rr:
                    break
                t, m = qq, m + 1
            out.append((irr, m))
    return out


def roots_in_field(F, f, seed=DEFAULT_SEED):
    """All distinct roots of f in F, sorted by canonical key."""
    f = trim(F, f)
    if not f:
        raise ZeroPolynomial("roots of the zero polynomial")
    if degree(f) == 0:
        return []
    # x^q - x mod f cuts out exactly the roots lying in F
    xq = powmod(F, x_poly(F), F.q, f)
    lin = gcd_poly(F, sub(F, xq, x_poly(F)), f)
    if degree(lin) == 0:
        return []
    rng = random.Random(repr((seed, "edf", F.p, F.k, degree(f))))
    roots = [F.neg(h[0]) for h in edf(F, lin, 1, rng)]
    return sorted(roots, key=F.sort_key)


def dickson(F, n, alpha):
    """D_n(x, alpha): D_0 = 2, D_1 = x, D_n = x*D_{n-1} - alpha*D_{n-2}."""
    if n < 0:
        raise ValueError("Dickson index must be >= 0")
    two = F.from_int(2)
    if n == 0:
        return constant(F, two)
    prev = constant(F, two)
    cur = x_poly(F)
    for _ in range(n - 1):
        nxt = sub(F, mul(F, x_poly(F), cur), scale(F, prev, alpha))
        prev, cur = cur, nxt
    return cur


def legendre_eval(F, m, x, B=None):
    """H_m(x, B) = B^(m/2) P_m(x / sqrt(B)), the homogeneous Legendre
    polynomial; B defaults to 1, giving P_m(x).  O(m), no coefficients
    stored.

    H_m is a polynomial in x and B, so it lies in F even when B is not
    a square there.  The recurrence runs division-free on
    S_n = n! H_n,

        S_n = (2n-1) x S_{n-1} - (n-1)^2 B S_{n-2},   S_0 = 1, S_1 = x,

    and m! is inverted once at the end, so m < p is required.
    """
    if m < 0:
        raise ValueError("Legendre index must be >= 0")
    p = F.p
    if m >= p:
        raise IndexTooLargeForCharacteristic(
            f"P_{m} needs division by {m}! but characteristic is {p}")
    if m == 0:
        return F.one
    fact = 1
    for n in range(2, m + 1):
        fact = fact * n % p
    inv_fact = pow(fact, -1, p)
    if F.k == 1:
        # raw elements are ints: keep the whole loop in int arithmetic
        B = 1 if B is None else B
        prev, cur = 1, x
        for n in range(2, m + 1):
            prev, cur = cur, ((2 * n - 1) * x * cur
                              - (n - 1) * (n - 1) * B * prev) % p
        return cur * inv_fact % p
    B = F.one if B is None else B
    prev, cur = F.one, x
    for n in range(2, m + 1):
        t = F.sub(F.mul(F.from_int(2 * n - 1), F.mul(x, cur)),
                  F.mul(F.from_int((n - 1) * (n - 1)), F.mul(B, prev)))
        prev, cur = cur, t
    return F.mul(cur, F.from_int(inv_fact))


def _int_poly_mul(f, g):
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out
