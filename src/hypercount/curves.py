"""Curves y^2 = f(x), the zeta oracle, and Mumford/Cantor Jacobian arithmetic.

Only odd-degree models (one point at infinity) are handled; callers that meet
an even-degree right-hand side move a rational Weierstrass point to infinity
first. The zeta oracle inverts point counts over F_{q^k}, k = 1..g, through
Newton's identities; everything there is exact integer arithmetic.
"""

import random

from . import polys
from .config import DEFAULT_SEED, default_budget
from .enumeration import check_enumerable, count_curve_points
from .errors import (BadGenus, CharacteristicDividesGenus, InternalError,
                     SingularCurve)
from .fields import FieldElement, embed, make_extension


def _raw(F, v):
    if isinstance(v, FieldElement):
        if v.desc is not F:
            raise ValueError("element belongs to a different field")
        return v.rep
    return F.coerce(v)


class CurveSpec:
    """y^2 = f(x), f monic of odd degree 2g+1, squarefree."""

    __slots__ = ("F", "f", "g", "a", "b")

    def __init__(self, F, fcoeffs, a=None, b=None):
        f = polys.trim(F, [_raw(F, c) for c in fcoeffs])
        deg = polys.degree(f)
        if deg < 3 or deg % 2 == 0:
            raise BadGenus(f"need odd degree >= 3, got degree {deg}")
        if f[-1] != F.one:
            raise ValueError("f must be monic")
        if not polys.is_squarefree(F, f):
            raise SingularCurve("f has a repeated root")
        self.F = F
        self.f = f
        self.g = (deg - 1) // 2
        self.a = a
        self.b = b

    @property
    def is_family(self):
        return self.a is not None

    def __repr__(self):
        return f"genus-{self.g} curve over {self.F!r}"

    def base_extend(self, k, seed=DEFAULT_SEED):
        """The same equation over F_{q^k}."""
        if k == 1:
            return self
        E = make_extension(self.F, k, seed=seed)
        f = [embed(c, self.F, E) for c in self.f]
        a = None if self.a is None else embed(self.a, self.F, E)
        b = None if self.b is None else embed(self.b, self.F, E)
        return CurveSpec(E, f, a=a, b=b)


def curve_from_ab(F, g, a, b):
    """Family curve y^2 = x^(2g+1) + a x^(g+1) + b x."""
    if not 1 <= g <= 7:
        raise BadGenus(f"genus {g} outside the supported range 1..7")
    if g % F.p == 0:
        raise CharacteristicDividesGenus(f"p = {F.p} divides g = {g}")
    a = _raw(F, a)
    b = _raw(F, b)
    if b == F.zero:
        raise SingularCurve("b = 0 gives x^(g+1) | f")
    f = [F.zero] * (2 * g + 2)
    f[1] = b
    f[g + 1] = a
    f[2 * g + 1] = F.one
    return CurveSpec(F, f, a=a, b=b)


def curve_from_f(F, coeffs):
    """General monic odd-degree model; family parameters auto-detected."""
    c = CurveSpec(F, coeffs)
    g, f = c.g, c.f
    inner = [f[i] for i in range(2 * g + 1) if i not in (1, g + 1)]
    if all(v == F.zero for v in inner) and f[1] != F.zero:
        c.a = f[g + 1]
        c.b = f[1]
    return c


def count_points(curve, k=1, budget=None, seed=DEFAULT_SEED):
    """#C(F_{q^k}) by exhaustive enumeration."""
    if budget is None:
        budget = default_budget()
    ext = make_extension(curve.F, k, seed=seed)
    f = [embed(c, curve.F, ext) for c in curve.f]
    return count_curve_points(ext, f, budget)


class LPoly:
    """L-polynomial of a curve over F_q: 1 + a1 T + ... + q^g T^(2g).

    Only a1..ag are stored; the upper half follows from the functional
    equation L_{2g-j} = q^(g-j) L_j.
    """

    __slots__ = ("q", "g", "a")

    def __init__(self, q, g, a):
        a = tuple(int(v) for v in a)
        if len(a) != g:
            raise ValueError("need exactly g coefficients")
        self.q = q
        self.g = g
        self.a = a

    def coeffs(self):
        """All 2g+1 coefficients of L, ascending."""
        low = [1] + list(self.a)
        high = [self.q ** (j - self.g) * low[2 * self.g - j]
                for j in range(self.g + 1, 2 * self.g + 1)]
        return low + high

    def chi_coeffs(self):
        """chi(T) = T^(2g) L(1/T); ascending coefficients, monic."""
        return list(reversed(self.coeffs()))

    def order(self):
        """#J = L(1)."""
        return sum(self.coeffs())

    def __eq__(self, other):
        if not isinstance(other, LPoly):
            return NotImplemented
        return (self.q, self.g, self.a) == (other.q, other.g, other.a)

    def __hash__(self):
        return hash((self.q, self.g, self.a))

    def __repr__(self):
        return f"LPoly(q={self.q}, g={self.g}, a={self.a})"

    def elementary(self):
        """e_1..e_2g of the inverse roots, from L_j = (-1)^j e_j."""
        L = self.coeffs()
        return [(-1) ** j * L[j] for j in range(1, 2 * self.g + 1)]

    def power_sums(self, upto):
        """s_1..s_upto where s_i = sum of i-th powers of inverse roots."""
        e = [1] + self.elementary()
        n = 2 * self.g
        s = []
        for i in range(1, upto + 1):
            if i <= n:
                acc = (-1) ** (i - 1) * i * e[i]
                for j in range(1, i):
                    acc += (-1) ** (j - 1) * e[j] * s[i - j - 1]
            else:
                acc = 0
                for j in range(1, n + 1):
                    acc += (-1) ** (j - 1) * e[j] * s[i - j - 1]
            s.append(acc)
        return s


def lpoly_from_counts(q, g, counts):
    """Invert N_k = q^k + 1 - s_k, k = 1..g, by Newton's identities."""
    s = [q ** k + 1 - counts[k - 1] for k in range(1, g + 1)]
    e = [1]
    for i in range(1, g + 1):
        acc = 0
        for j in range(1, i + 1):
            acc += (-1) ** (j - 1) * e[i - j] * s[j - 1]
        if acc % i:
            raise InternalError("Newton recursion left a fraction")
        e.append(acc // i)
    a = [(-1) ** i * e[i] for i in range(1, g + 1)]
    return LPoly(q, g, a)


def check_oracle_budget(curve, budget=None):
    """Raise BudgetExceeded unless zeta_oracle can count every F_{q^k}.

    Refuses before anything is counted, naming the smallest field that
    the count over F_{q^k}, k = 1..g, would refuse.
    """
    if budget is None:
        budget = default_budget()
    for k in range(1, curve.g + 1):
        check_enumerable(curve.F.p, curve.F.k * k, budget)


def zeta_oracle(curve, budget=None, seed=DEFAULT_SEED):
    """L-polynomial by brute-force counting over F_{q^k}, k = 1..g."""
    check_oracle_budget(curve, budget)
    counts = [count_points(curve, k, budget=budget, seed=seed)
              for k in range(1, curve.g + 1)]
    return lpoly_from_counts(curve.F.q, curve.g, counts)


# --- Mumford representation and Cantor's algorithm ---

def jac_identity(curve):
    return ([curve.F.one], [])


def is_identity(D):
    u, v = D
    return polys.degree(u) == 0 and not v


def jac_neg(curve, D):
    F = curve.F
    u, v = D
    return (u, polys.rem(F, polys.neg(F, v), u) if polys.degree(u) > 0 else [])


def _reduce(curve, u, v):
    F, f, g = curve.F, curve.f, curve.g
    while polys.degree(u) > g:
        t = polys.sub(F, f, polys.mul(F, v, v))
        u2, r = polys.divmod_poly(F, t, u)
        if r:
            raise InternalError("Cantor reduction: inexact division")
        u2 = polys.monic(F, u2)
        v = polys.rem(F, polys.neg(F, v), u2)
        u = u2
    return polys.monic(F, u), v


def _cantor_add(curve, D1, D2):
    """Cantor composition + reduction, over any field.

    jac_add falls back to it when the prime-field composition does not
    apply (u1, u2 share a root, or a doubled divisor meets y = 0).
    """
    F, f = curve.F, curve.f
    u1, v1 = D1
    u2, v2 = D2
    d1, e1, e2 = polys.xgcd_poly(F, u1, u2)
    d, c1, c2 = polys.xgcd_poly(F, d1, polys.add(F, v1, v2))
    s1 = polys.mul(F, c1, e1)
    s2 = polys.mul(F, c1, e2)
    s3 = c2
    u3, r = polys.divmod_poly(F, polys.mul(F, u1, u2), polys.mul(F, d, d))
    if r:
        raise InternalError("Cantor composition: inexact division")
    num = polys.add(F, polys.add(F,
        polys.mul(F, s1, polys.mul(F, u1, v2)),
        polys.mul(F, s2, polys.mul(F, u2, v1))),
        polys.mul(F, s3, polys.add(F, polys.mul(F, v1, v2), f)))
    v3, r = polys.divmod_poly(F, num, d)
    if r:
        raise InternalError("Cantor composition: inexact v division")
    v3 = polys.rem(F, v3, u3)
    return _reduce(curve, u3, v3)


# Prime-field composition (Cohen-Frey et al., Handbook of Elliptic and
# Hyperelliptic Curve Cryptography, 14.3) on lists of ints with inline % p.
# Inputs are reduced pairs, so u1, u2 are monic and nonzero polynomials.

def _trim_p(a):
    n = len(a)
    while n and not a[n - 1]:
        n -= 1
    del a[n:]
    return a


def _mul_p(a, b):
    """a*b for nonzero a, b; unreduced coefficients."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _divmod_p(a, m, p):
    """(a // m, a mod m) for the monic m; the remainder as exactly deg(m)
    reduced coefficients."""
    n = len(m) - 1
    r = list(a) + [0] * (n - len(a))
    q = [0] * (len(r) - n)
    for k in range(len(q) - 1, -1, -1):
        c = q[k] = r[k + n] % p
        if c:
            for i in range(n):
                r[k + i] -= c * m[i]
    return q, [c % p for c in r[:n]]


def _exact_quo_p(t, m, p):
    """t / m for the monic m; t's top coefficient is nonzero mod p, so the
    quotient needs no trimming."""
    q, r = _divmod_p(t, m, p)
    if any(r):
        raise InternalError("prime-field composition: inexact division")
    return q


def _f_minus_square(f, v):
    """f - v^2, unreduced; its top coefficient is nonzero mod p because
    deg f is odd and deg v^2 even."""
    t = f + [0] * (2 * len(v) - 1 - len(f))
    for i, x in enumerate(v):
        if x:
            t[2 * i] -= x * x
            x2 = 2 * x
            for j in range(i + 1, len(v)):
                t[i + j] -= x2 * v[j]
    return t


def _solve_p(a, r, m, p):
    """s with deg s < deg m and s*a = r (mod m), for the monic m; None if
    a and m share a root.  Column j of the system is x^j * a mod m."""
    n = len(m) - 1
    col = _divmod_p(a, m, p)[1]
    cols = [col]
    for _ in range(n - 1):
        top = col[-1]
        col = [0] + col[:-1]
        if top:
            col = [(c - top * mi) % p for c, mi in zip(col, m)]
        cols.append(col)
    rows = [list(row) for row in zip(*cols, _divmod_p(r, m, p)[1])]
    for c in range(n):
        piv = next((i for i in range(c, n) if rows[i][c]), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], -1, p)
        pr = rows[c] = [x * inv % p for x in rows[c]]
        for i in range(n):
            h = rows[i][c]
            if i != c and h:
                rows[i] = [(x - h * y) % p for x, y in zip(rows[i], pr)]
    return _trim_p([row[n] for row in rows])


def _prime_add(curve, D1, D2):
    """D1 + D2 over F_p, or None when Cantor's composition is needed."""
    p, f, g = curve.F.p, curve.f, curve.g
    (u1, v1), (u2, v2) = D1, D2
    if len(u1) == 1:
        u, v = u2, v2
    elif len(u2) == 1:
        u, v = u1, v1
    else:
        if u1 == u2 and v1 == v2:
            # doubling: s*2v = (f - v^2)/u (mod u), U = u^2, V = v + s*u
            k = _exact_quo_p(_f_minus_square(f, v1), u1, p)
            s = _solve_p([2 * x for x in v1], k, u1, p)
        else:
            if len(u1) < len(u2):  # the system has deg u2 unknowns
                (u1, v1), (u2, v2) = D2, D1
            # coprime: s*u1 = v2 - v1 (mod u2), U = u1*u2, V = v1 + s*u1
            d = [-x for x in v1] + [0] * (len(v2) - len(v1))
            for i, y in enumerate(v2):
                d[i] += y
            s = _solve_p(u1, d, u2, p)
        if s is None:
            return None
        u = [c % p for c in _mul_p(u1, u2)]
        if s:
            v = _mul_p(s, u1)
            for i, x in enumerate(v1):
                v[i] += x
            v = [c % p for c in v]
        else:
            v = v1
    while len(u) - 1 > g:
        q = _exact_quo_p(_f_minus_square(f, v), u, p)
        if q[-1] != 1:
            inv = pow(q[-1], -1, p)
            q = [c * inv % p for c in q]
        u, v = q, _trim_p(_divmod_p([-c for c in v], q, p)[1])
    return u, v


def jac_add(curve, D1, D2):
    """D1 + D2 as a reduced Mumford pair.

    Over F_p this is the coprime-addition or doubling composition above;
    Cantor's composition covers extension fields and the cases it leaves
    (a shared root, or y = 0 at a doubled point).  Reduced pairs are
    unique, so both give the same answer.
    """
    if curve.F.k == 1:
        D = _prime_add(curve, D1, D2)
        if D is not None:
            return D
    return _cantor_add(curve, D1, D2)


def _naf(n):
    """Non-adjacent form of n >= 0, least significant digit first."""
    digits = []
    while n:
        if n & 1:
            d = 2 - (n & 3)
            n -= d
        else:
            d = 0
        digits.append(d)
        n >>= 1
    return digits


def jac_scalar_mul(curve, n, D):
    """n*D by left-to-right double-and-add on the non-adjacent form of n."""
    if n < 0:
        return jac_scalar_mul(curve, -n, jac_neg(curve, D))
    digits = _naf(n)
    if not digits:
        return jac_identity(curve)
    neg = jac_neg(curve, D) if -1 in digits else None
    acc = D
    for d in reversed(digits[:-1]):
        acc = jac_add(curve, acc, acc)
        if d:
            acc = jac_add(curve, acc, D if d > 0 else neg)
    return acc


def random_divisor(curve, seed):
    """Sum of up to g random points; deterministic for a given seed."""
    F, g = curve.F, curve.g
    rng = seed if isinstance(seed, random.Random) else \
        random.Random(repr((seed, "divisor", F.p, F.k)))
    want = rng.randrange(1, g + 1)
    D = jac_identity(curve)
    got = 0
    for _ in range(10000):
        if got == want:
            return D
        x = F.rand(rng)
        y = F.sqrt(polys.evaluate(F, curve.f, x))
        if y is None:
            continue
        if rng.getrandbits(1):
            y = F.neg(y)
        pt = ([F.neg(x), F.one], [y] if y != F.zero else [])
        D = jac_add(curve, D, pt)
        got += 1
    if got == want:
        return D
    raise InternalError("random divisor sampling exhausted its retries")


def jacobian_order_screen(curve, orders, trials, seed):
    """The orders N with N*D = 0 for `trials` sampled divisors, in input order.

    Trial t samples the same divisor D_t for every order, so the verdict
    on each N is that of jacobian_order_check.  The surviving orders are
    walked in ascending order and N*D_t is reached from the previous
    multiple by adding (gap)*D_t; those multiples are cached per gap, so
    orders in arithmetic progression cost one addition each.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if any(N <= 0 for N in orders):
        raise ValueError("order must be positive")
    alive = sorted(set(orders))
    for t in range(trials):
        if not alive:
            break
        rng = random.Random(repr((seed, "order-check", t, curve.F.p, curve.F.k)))
        D = random_divisor(curve, rng)
        steps = {}
        acc, prev, kept = jac_identity(curve), 0, []
        for N in alive:
            gap = N - prev
            step = steps.get(gap)
            if step is None:
                step = steps[gap] = jac_scalar_mul(curve, gap, D)
            acc = step if prev == 0 else jac_add(curve, acc, step)
            prev = N
            if is_identity(acc):
                kept.append(N)
        alive = kept
    passed = set(alive)
    return [N for N in orders if N in passed]


def jacobian_order_check(curve, N, trials, seed):
    """True iff N*D = 0 for `trials` sampled divisors; False is conclusive."""
    return bool(jacobian_order_screen(curve, [N], trials, seed))
