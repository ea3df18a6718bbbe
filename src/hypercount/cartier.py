"""Cartier-Manin matrices and the characteristic polynomial mod p.

For y^2 = f(x) over F_q, q = p^n, the matrix W holds the coefficients
c_{ip-j} of f^((p-1)/2) (1-indexed, 1 <= i, j <= g).  The twisted
product W_p = W^t (W^t)^(p) ... (W^t)^(p^(n-1)) then determines the
characteristic polynomial of Frobenius modulo p:

    chi(T) = T^g det(T I - W_p)  (mod p).

For the two-parameter family y^2 = x^(2g+1) + a x^(g+1) + b x the
matrix is a generalized permutation matrix whose nonzero entries are
Legendre polynomials evaluated at -a/(2 sqrt(b)), which is what the
closed-form path and the genus 2..7 factored table implement.  Both
work with the homogeneous form H_s(X, B) = B^(s/2) P_s(X / sqrt(B)),
a polynomial in X and B, through

    sqrt(b)^s P_s(-a / (2 sqrt(b))) = H_s(-a/2, b),

so every Legendre value is computed in the curve's own field; only the
table's reported factor constants may need sqrt(b) in F_{p^2}.

The naive path writes f = x^r h(x^d), d the gcd of the gaps between
the exponents of f (d = g for the family, 2g when a = 0, 1 for a
generic curve), and expands only h^((p-1)/2), which has d-fold fewer
coefficients.  Its budget, _SLOT_CAP, still counts the coefficients of
the full f^((p-1)/2): (2g+1)(p-1)/2 + 1.
"""

import math

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

    Coefficients ride in fixed-width slots of one big integer, so each
    polynomial product is a single big-int multiply; slots are unpacked
    and reduced mod p after every step.  A slot holds a sum of up to
    deg(f^e) + 1 products of residues, in as few whole bytes as that
    takes; at most 8 are allowed.
    """
    p = F.p
    terms = (len(f) - 1) * e + 1
    width = ((terms * (p - 1) ** 2).bit_length() + 7) // 8
    if width > 8:
        raise BudgetExceeded("coefficients would overflow 64-bit slots")

    def pack(coeffs):
        arr = np.asarray(coeffs, dtype="<u8").view(np.uint8).reshape(-1, 8)
        return int.from_bytes(arr[:, :width].tobytes(), "little")

    def unpack(v, slots):
        raw = np.frombuffer(v.to_bytes(width * slots, "little"), np.uint8)
        arr = np.zeros((slots, 8), dtype=np.uint8)
        arr[:, :width] = raw.reshape(slots, width)
        return arr.view("<u8").ravel() % p

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


def _sparse_form(F, f):
    """(r, d, h) with f = x^r h(x^d): r the lowest exponent of f, d the
    gcd of the gaps between its exponents."""
    exps = [i for i, c in enumerate(f) if c != F.zero]
    r = exps[0]
    d = 0
    for e in exps[1:]:
        d = math.gcd(d, e - r)
    d = d or 1
    return r, d, f[r::d]


def cm_matrix_naive(curve):
    """W = (c_{ip-j}) straight from expanding f^m, m = (p-1)/2.

    Works for any curve.  Writing f = x^r h(x^d), only h^m is expanded,
    which has d-fold fewer coefficients; c_n is read off index
    (n - r m) / d.  The budget is the slot count of the full f^m, whose
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
    r, d, h = _sparse_form(F, curve.f)
    if m == 0:
        hm = [F.one]
    elif F.k == 1:
        if slots * p * p >= 1 << 63:
            raise BudgetExceeded("coefficients would overflow 64-bit slots")
        hm = _pow_coeffs_prime(F, h, m)
    else:
        acc = None
        for bit in bin(m)[2:]:
            if acc is None:
                acc = h if bit == "1" else [F.one]
                continue
            acc = polys.mul(F, acc, acc)
            if bit == "1":
                acc = polys.mul(F, acc, h)
        hm = acc

    def coeff(n):
        t, rest = divmod(n - r * m, d)
        if rest or t < 0 or t >= len(hm):
            return F.zero
        return F.coerce(int(hm[t])) if F.k == 1 else hm[t]

    entries = [[coeff(i * p - j) for j in range(1, g + 1)]
               for i in range(1, g + 1)]
    return CMMatrix(curve, entries)


def _sqrt_tower(F, b, seed):
    """(field K, sqrt of b in K) for b in F_p: K is F_p itself when b is
    a square, else F_{p^2}.  The root is the one K.sqrt picks, the
    smaller of the two by sort key."""
    r = F.sqrt(b)
    if r is not None:
        return F, r
    p = F.p
    K = make_extension(F, 2, seed=seed)
    # with modulus x^2 + u x + v, s = x + u/2 squares to the nonsquare
    # delta = u^2/4 - v of F_p, so sqrt(b) = sqrt(b / delta) s
    v, u, _ = K.modulus
    half_u = u * (p + 1) // 2 % p
    delta = (half_u * half_u - v) % p
    t = F.sqrt(F.div(b, delta))
    r = (t * half_u % p, t)
    return K, min(r, K.neg(r), key=K.sort_key)


def _half_neg(F, a):
    """-a/2 in F."""
    return F.mul(F.neg(a), F.from_int((F.p + 1) // 2))


def cm_matrix_formula(curve):
    """Closed-form W for family curves.

    Entry (i, j) with e = ip - j is nonzero only for e = m mod g
    (m = (p-1)/2), where it equals

        sqrt(b)^(2m - s) P_s(-a / (2 sqrt(b))) = b^(m - s) H_s(-a/2, b),

    s = (e - m) / g, with H_s the homogeneous Legendre polynomial
    (polys.legendre_eval), so every entry is computed in F itself.
    """
    if not curve.is_family:
        raise ValueError("closed form needs the two-parameter family")
    F = curve.F
    g = curve.g
    p = F.p
    if g % p == 0:
        raise CharacteristicDividesGenus(f"p = {p} divides g = {g}")
    m = (p - 1) // 2
    b = curve.b
    x = _half_neg(F, curve.a)
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
                cache[s] = polys.legendre_eval(F, s, x, b)
            # s can pass m; b^(q-1) = 1 keeps the exponent nonnegative
            row.append(F.mul(F.pow(b, (m - s) % (F.q - 1)), cache[s]))
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


def twist_factor(K, sb, p, i, e=1, n=0):
    """sqrt(b)^(e (p-1)/i - n); the table only uses i dividing p - 1.

    sqrt(b)^(2(p-1)) = b^(p-1) = 1 for b in F_p, so a negative exponent
    is taken modulo 2(p-1).
    """
    if (p - 1) % i:
        raise InternalError(f"{i} does not divide p - 1 = {p - 1}")
    return K.pow(sb, (e * ((p - 1) // i) - n) % (2 * (p - 1)))


def chi_mod_p_table(g, curve, seed=None):
    """Factored chi mod p for the family, straight from the genus-2..7
    table; expanded coefficients are asserted to land in F_p.

    Each factor constant is sqrt(b)^(e (p-1)/i - N) prod H_n(-a/2, b),
    N the sum of its Legendre indices n: the H_n multiply in F_p, and
    only sqrt(b), hence the reported constant, may need F_{p^2}.
    """
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
    x = _half_neg(F, curve.a)
    cache = {}
    factors = []
    poly = [K.one]
    for d, (i, e), pidx in row:
        prod, total = F.one, 0
        for (u, v, w) in pidx:
            n, r = divmod(u * p + v, w)
            if r or n < 0:
                raise InternalError(f"bad Legendre index ({u}p{v:+d})/{w}")
            if n not in cache:
                cache[n] = polys.legendre_eval(F, n, x, curve.b)
            prod = F.mul(prod, cache[n])
            total += n
        const = K.mul(twist_factor(K, sb, p, i, e, total),
                      embed(prod, F, K))
        factors.append((d, FieldElement(K, const)))
        fac = [K.neg(const)] + [K.zero] * (d - 1) + [K.one]
        poly = polys.mul(K, poly, fac)
    coeffs = [0] * g
    for v in poly:
        c = project(v, K, F.pf) if K is not F else v
        if c is None:
            raise InternalError("table coefficient escaped F_p")
        coeffs.append(int(c))
    return ChiModP(p, g, coeffs, factors=factors)
