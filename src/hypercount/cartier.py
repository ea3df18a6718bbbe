"""Cartier-Manin matrices and the characteristic polynomial mod p.

For y^2 = f(x) over F_q, q = p^n, the matrix W holds the coefficients
c_{ip-j} of f^((p-1)/2) (1-indexed, 1 <= i, j <= g).  The twisted
product W_p = W^t (W^t)^(p) ... (W^t)^(p^(n-1)) then determines the
characteristic polynomial of Frobenius modulo p:

    chi(T) = T^g det(T I - W_p)  (mod p).

For the two-parameter family y^2 = x^(2g+1) + a x^(g+1) + b x the
matrix is a generalized permutation matrix whose nonzero entries are
Legendre polynomials evaluated at -a/(2 sqrt(b)), which is what the
closed-form path and the genus 2..7 factored table implement.
"""

import numpy as np

from . import polys
from .config import DEFAULT_SEED
from .errors import (CharacteristicDividesGenus, BudgetExceeded,
                     InternalError, NotPrimeField, RowNotApplicable,
                     UnsupportedGenus)
from .fields import FieldElement, embed, make_extension, project

# dense powering cap: slot count of the fully expanded f^((p-1)/2)
_SLOT_CAP = 600_000


class CMMatrix:
    """g x g matrix of the c_{ip-j}; entry(i, j) is 1-indexed."""

    __slots__ = ("curve", "entries")

    def __init__(self, curve, entries):
        g = curve.g
        if len(entries) != g or any(len(row) != g for row in entries):
            raise ValueError("entries must be g x g")
        self.curve = curve
        self.entries = [[curve.F.el(v) for v in row] for row in entries]

    @property
    def g(self):
        return self.curve.g

    def entry(self, i, j):
        return self.entries[i - 1][j - 1]

    def __eq__(self, other):
        if not isinstance(other, CMMatrix):
            return NotImplemented
        return (self.curve.F is other.curve.F
                and [[e.rep for e in row] for row in self.entries]
                == [[e.rep for e in row] for row in other.entries])

    def __repr__(self):
        return f"CMMatrix(g={self.g}, q={self.curve.F.q})"


class ChiModP:
    """T^g det(TI - W_p) mod p: expanded coefficients, plus the factored
    shape (T^d - const) when one is known."""

    __slots__ = ("p", "g", "coeffs", "factors")

    def __init__(self, p, g, coeffs, factors=None):
        coeffs = [int(c) % p for c in coeffs]
        if len(coeffs) != 2 * g + 1:
            raise ValueError("need 2g+1 coefficients")
        if coeffs[2 * g] != 1:
            raise ValueError("must be monic")
        if any(coeffs[:g]):
            raise ValueError("must be divisible by T^g")
        self.p = p
        self.g = g
        self.coeffs = coeffs
        self.factors = factors

    def __eq__(self, other):
        if not isinstance(other, ChiModP):
            return NotImplemented
        return (self.p, self.g, self.coeffs) == (other.p, other.g,
                                                 other.coeffs)

    def __repr__(self):
        return f"ChiModP(p={self.p}, g={self.g}, coeffs={self.coeffs})"


def _pow_coeffs_prime(F, f, e):
    """Coefficients of f^e over a prime field by packed squaring.

    Coefficients ride in 64-bit slots of one big integer, so each
    polynomial product is a single big-int multiply; slots are unpacked
    and reduced mod p after every step.  Needs slots * p^2 < 2^63.
    """
    p = F.p

    def pack(coeffs):
        arr = np.array(coeffs, dtype="<u8")
        return int.from_bytes(arr.tobytes(), "little")

    def unpack(v, slots):
        raw = v.to_bytes(8 * slots, "little")
        arr = np.frombuffer(raw, dtype="<u8") % p
        return arr

    base = np.array(f, dtype="<u8")
    dbase = len(f) - 1
    acc, dacc = None, 0
    for bit in bin(e)[2:]:
        if acc is not None:
            slots = 2 * dacc + 1
            acc = unpack(pack(acc) ** 2, slots)
            dacc *= 2
        else:
            acc = np.array([1], dtype="<u8")
        if bit == "1":
            slots = dacc + dbase + 1
            acc = unpack(pack(acc) * pack(base), slots)
            dacc += dbase
    return acc


def cm_matrix_naive(curve):
    """W = (c_{ip-j}) straight from expanding f^((p-1)/2).

    Works for any curve; the expansion is budget-guarded since its
    degree grows linearly in p (intended range p < 10^4).
    """
    F = curve.F
    g = curve.g
    p = F.p
    m = (p - 1) // 2
    slots = (2 * g + 1) * m + 1
    if slots > _SLOT_CAP:
        raise BudgetExceeded(
            f"f^((p-1)/2) has {slots} coefficients, cap is {_SLOT_CAP}")
    if m == 0:
        fm = [F.one]
    elif F.k == 1:
        if slots * p * p >= 1 << 63:
            raise BudgetExceeded("coefficients would overflow 64-bit slots")
        fm = _pow_coeffs_prime(F, curve.f, m)
    else:
        acc = None
        for bit in bin(m)[2:]:
            if acc is None:
                acc = curve.f if bit == "1" else [F.one]
                continue
            acc = polys.mul(F, acc, acc)
            if bit == "1":
                acc = polys.mul(F, acc, curve.f)
        fm = acc

    def coeff(n):
        if n < 0 or n >= len(fm):
            return F.zero
        return F.coerce(int(fm[n])) if F.k == 1 else fm[n]

    entries = [[coeff(i * p - j) for j in range(1, g + 1)]
               for i in range(1, g + 1)]
    return CMMatrix(curve, entries)


def _sqrt_tower(F, b, seed):
    """(field K, sqrt of b in K): K is F itself when b is a square."""
    r = F.sqrt(b)
    if r is not None:
        return F, r
    K = make_extension(F.pf, 2 * F.k, seed=seed)
    r = K.sqrt(embed(b, F, K))
    if r is None:
        raise InternalError("b must be a square in the quadratic extension")
    return K, r


def cm_matrix_formula(curve, seed=None):
    """Closed-form W for family curves.

    Entry (i, j) with e = ip - j is nonzero only for e = m mod g
    (m = (p-1)/2), where it equals

        sqrt(b)^(2m - s) P_s(-a / (2 sqrt(b))),   s = (e - m) / g.

    All intermediates may live in F_{q^2}; the result provably lies in
    F_q, and failure to project back is an internal error.
    """
    if seed is None:
        seed = DEFAULT_SEED
    if not curve.is_family:
        raise ValueError("closed form needs the two-parameter family")
    F = curve.F
    g = curve.g
    p = F.p
    if g % p == 0:
        raise CharacteristicDividesGenus(f"p = {p} divides g = {g}")
    m = (p - 1) // 2
    K, sb = _sqrt_tower(F, curve.b, seed)
    aK = embed(curve.a, F, K)
    c = K.neg(K.div(aK, K.add(sb, sb)))
    cache = {}
    entries = []
    for i in range(1, g + 1):
        row = []
        for j in range(1, g + 1):
            e = i * p - j
            if (e - m) % g:
                row.append(F.zero)
                continue
            s = (e - m) // g
            if s < 0:
                row.append(F.zero)
                continue
            if s not in cache:
                cache[s] = polys.legendre_eval(K, s, c)
            w = K.mul(K.pow(sb, 2 * m - s), cache[s])
            v = project(w, K, F) if K is not F else w
            if v is None:
                raise InternalError("formula entry escaped the base field")
            row.append(v)
        entries.append(row)
    return CMMatrix(curve, entries)


def wp_product(W, n):
    """W^t (W^t)^(p) ... (W^t)^(p^(n-1)) as a matrix of FieldElement."""
    if n < 1:
        raise ValueError("need n >= 1")
    F = W.curve.F
    g = W.g
    M = [[W.entries[j][i].rep for j in range(g)] for i in range(g)]
    R = [row[:] for row in M]
    for _ in range(n - 1):
        M = [[F.frobenius(v) for v in row] for row in M]
        R = [[_dot(F, R, M, i, j) for j in range(g)] for i in range(g)]
    return [[FieldElement(F, v) for v in row] for row in R]


def _dot(F, A, B, i, j):
    acc = F.zero
    for t in range(len(B)):
        acc = F.add(acc, F.mul(A[i][t], B[t][j]))
    return acc


def _charpoly(F, M):
    """det(T I - M), ascending raw coefficients, division-free."""
    n = len(M)
    vec = [F.one]
    for k in range(1, n + 1):
        toep = [F.one, F.neg(M[k - 1][k - 1])]
        w = [M[i][k - 1] for i in range(k - 1)]
        for _ in range(k - 1):
            dot = F.zero
            for i in range(k - 1):
                dot = F.add(dot, F.mul(M[k - 1][i], w[i]))
            toep.append(F.neg(dot))
            w = [_dot(F, M, [[x] for x in w], i, 0) for i in range(k - 1)]
        new = []
        for i in range(k + 1):
            acc = F.zero
            for j in range(max(0, i - k), min(i, k - 1) + 1):
                acc = F.add(acc, F.mul(toep[i - j], vec[j]))
            new.append(acc)
        vec = new
    return list(reversed(vec))


def chi_mod_p(curve):
    """chi(T) = T^g det(TI - W_p) mod p, from the naive matrix."""
    F = curve.F
    g = curve.g
    W = cm_matrix_naive(curve)
    Wp = wp_product(W, F.k)
    cp = _charpoly(F, [[v.rep for v in row] for row in Wp])
    coeffs = [0] * g
    for v in cp:
        c = project(v, F, F.pf) if F.k > 1 else v
        if c is None:
            raise InternalError("charpoly coefficient escaped F_p")
        coeffs.append(int(c))
    return ChiModP(F.p, g, coeffs)


# Factored chi mod p for the family, genus 2..7.  Row key is p modulo
# 4, 3, 8, 5, 12, 7 respectively.  Each factor (T^d - const) is encoded
# as (d, (i, e), [(u, v, w), ...]) with
#     const = twist_factor(i)^e * prod P_{(u p + v)/w}(-a/(2 sqrt(b)))
# and twist_factor(i) = sqrt(b)^((p-1)/i); repeated index triples mean
# repeated Legendre factors, repeated rows mean repeated factors.
_TABLE = {
    2: {1: [(1, (4, 3), [(1, -1, 4)]),
            (1, (4, 1), [(1, -1, 4)])],
        3: [(2, (2, 2), [(1, -3, 4), (1, -3, 4)])]},
    3: {1: [(1, (2, 1), [(1, -1, 2)]),
            (1, (6, 5), [(1, -1, 6)]),
            (1, (6, 1), [(1, -1, 6)])],
        2: [(1, (2, 1), [(1, -1, 2)]),
            (2, (2, 2), [(1, -5, 6), (1, -5, 6)])]},
    4: {1: [(1, (8, 5), [(3, -3, 8)]),
            (1, (8, 3), [(3, -3, 8)]),
            (1, (8, 7), [(1, -1, 8)]),
            (1, (8, 1), [(1, -1, 8)])],
        3: [(2, (2, 3), [(3, -1, 8), (1, -3, 8)]),
            (2, (2, 1), [(3, -1, 8), (1, -3, 8)])],
        5: [(2, (4, 5), [(3, -7, 8), (1, -5, 8)]),
            (2, (4, 3), [(3, -7, 8), (1, -5, 8)])],
        7: [(2, (2, 2), [(3, -5, 8), (3, -5, 8)]),
            (2, (2, 2), [(1, -7, 8), (1, -7, 8)])]},
    5: {1: [(1, (2, 1), [(1, -1, 2)]),
            (1, (10, 7), [(3, -3, 10)]),
            (1, (10, 3), [(3, -3, 10)]),
            (1, (10, 9), [(1, -1, 10)]),
            (1, (10, 1), [(1, -1, 10)])],
        2: [(4, (2, 4), [(3, -1, 10), (3, -1, 10),
                         (1, -7, 10), (1, -7, 10)]),
            (1, (2, 1), [(1, -1, 2)])],
        3: [(4, (2, 4), [(3, -9, 10), (3, -9, 10),
                         (1, -3, 10), (1, -3, 10)]),
            (1, (2, 1), [(1, -1, 2)])],
        4: [(2, (2, 2), [(3, -7, 10), (3, -7, 10)]),
            (2, (2, 2), [(1, -9, 10), (1, -9, 10)]),
            (1, (2, 1), [(1, -1, 2)])]},
    6: {1: [(1, (12, 7), [(5, -5, 12)]),
            (1, (12, 5), [(5, -5, 12)]),
            (1, (12, 9), [(1, -1, 4)]),
            (1, (12, 3), [(1, -1, 4)]),
            (1, (12, 11), [(1, -1, 12)]),
            (1, (12, 1), [(1, -1, 12)])],
        5: [(2, (2, 3), [(5, -1, 12), (1, -5, 12)]),
            (2, (2, 1), [(5, -1, 12), (1, -5, 12)]),
            (1, (4, 3), [(1, -1, 4)]),
            (1, (4, 1), [(1, -1, 4)])],
        7: [(2, (2, 2), [(1, -3, 4), (1, -3, 4)]),
            (2, (3, 4), [(5, -11, 12), (1, -7, 12)]),
            (2, (3, 2), [(5, -11, 12), (1, -7, 12)])],
        11: [(2, (2, 2), [(5, -7, 12), (5, -7, 12)]),
             (2, (2, 2), [(1, -3, 4), (1, -3, 4)]),
             (2, (2, 2), [(1, -11, 12), (1, -11, 12)])]},
    7: {1: [(1, (2, 1), [(1, -1, 2)]),
            (1, (14, 9), [(5, -5, 14)]),
            (1, (14, 5), [(5, -5, 14)]),
            (1, (14, 11), [(3, -3, 14)]),
            (1, (14, 3), [(3, -3, 14)]),
            (1, (14, 13), [(1, -1, 14)]),
            (1, (14, 1), [(1, -1, 14)])],
        2: [(3, (2, 3), [(5, -3, 14), (3, -13, 14), (1, -9, 14)]),
            (3, (2, 3), [(5, -3, 14), (3, -13, 14), (1, -9, 14)]),
            (1, (2, 1), [(1, -1, 2)])],
        3: [(6, (2, 6), [(5, -1, 14), (5, -1, 14), (3, -9, 14),
                         (3, -9, 14), (1, -3, 14), (1, -3, 14)]),
            (1, (2, 1), [(1, -1, 2)])],
        4: [(3, (2, 3), [(5, -13, 14), (3, -5, 14), (1, -11, 14)]),
            (3, (2, 3), [(5, -13, 14), (3, -5, 14), (1, -11, 14)]),
            (1, (2, 1), [(1, -1, 2)])],
        5: [(6, (2, 6), [(5, -11, 14), (5, -11, 14), (3, -1, 14),
                         (3, -1, 14), (1, -5, 14), (1, -5, 14)]),
            (1, (2, 1), [(1, -1, 2)])],
        6: [(2, (2, 2), [(5, -9, 14), (5, -9, 14)]),
            (2, (2, 2), [(3, -11, 14), (3, -11, 14)]),
            (2, (2, 2), [(1, -13, 14), (1, -13, 14)]),
            (1, (2, 1), [(1, -1, 2)])]},
}

_ROW_MOD = {2: 4, 3: 3, 4: 8, 5: 5, 6: 12, 7: 7}


def twist_factor(K, sb, p, i):
    """sqrt(b)^((p-1)/i); the table only uses i dividing p - 1."""
    if (p - 1) % i:
        raise InternalError(f"{i} does not divide p - 1 = {p - 1}")
    return K.pow(sb, (p - 1) // i)


def chi_mod_p_table(g, curve, seed=None):
    """Factored chi mod p for the family, straight from the genus-2..7
    table; expanded coefficients are asserted to land in F_p."""
    if seed is None:
        seed = DEFAULT_SEED
    if g not in _TABLE:
        raise UnsupportedGenus(f"table covers genus 2..7, not {g}")
    if not curve.is_family or curve.g != g:
        raise ValueError("need a family curve of the requested genus")
    F = curve.F
    if F.k != 1:
        raise NotPrimeField("the factored table is stated over F_p")
    p = F.p
    if g % p == 0:
        raise CharacteristicDividesGenus(f"p = {p} divides g = {g}")
    row = _TABLE[g].get(p % _ROW_MOD[g])
    if row is None:
        raise RowNotApplicable(
            f"p = {p} mod {_ROW_MOD[g]} has no row at genus {g}")
    K, sb = _sqrt_tower(F, curve.b, seed)
    c = K.neg(K.div(embed(curve.a, F, K), K.add(sb, sb)))
    factors = []
    poly = [K.one]
    for d, (i, e), pidx in row:
        const = K.pow(twist_factor(K, sb, p, i), e)
        for (u, v, w) in pidx:
            n, r = divmod(u * p + v, w)
            if r or n < 0:
                raise InternalError(f"bad Legendre index ({u}p{v:+d})/{w}")
            const = K.mul(const, polys.legendre_eval(K, n, c))
        factors.append((d, FieldElement(K, const)))
        fac = [K.neg(const)] + [K.zero] * (d - 1) + [K.one]
        poly = polys.mul(K, poly, fac)
    coeffs = [0] * g
    for v in poly:
        x = project(v, K, F.pf) if K is not F else v
        if x is None:
            raise InternalError("table coefficient escaped F_p")
        coeffs.append(int(x))
    return ChiModP(p, g, coeffs, factors=factors)

