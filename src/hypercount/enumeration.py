"""Vectorized exhaustive point counting over small finite fields.

Counts solutions of y^2 = f(x) (plus the single point at infinity of the
odd-degree model) by enumerating every x, with a precomputed square-flag
table indexed by packed digit vectors.  For each x the fiber contributes
1 + chi2(f(x)) points, so the total is 1 + 2S - Z where S is the number
of x with f(x) a square (zero included) and Z the number of zeros.

Over F_{p^k}, k > 1, each x is x0 + t with t in F_p and x0 a lane, an
element whose digit 0 is zero; digits are held as contiguous (k, lanes)
arrays.  f(x0 + t) is a polynomial of degree d = deg f in t, so Horner
runs only for t < min(p, d + 1).  From there the backward differences
of order 0..d at t = d step t = d+1..p-1 with d digit-wise additions mod
p each.  When p <= d + 1 there is nothing to step and every value comes
from Horner.  The square-flag table is built the same way from x^2.

int64 stays exact: digit products are < p^2 and at most k of them
accumulate before a reduction, every sum is reduced mod p at once, and
packed indices are < q.  `check_enumerable` refuses any field where
that fails, whatever the budget.
"""

import numpy as np

from .errors import BudgetExceeded

_CHUNK = 1 << 16
_INT64_LIMIT = 1 << 63


class _ExtOps:
    """Batch arithmetic on (k, n) digit arrays for one extension field."""

    def __init__(self, F):
        self.p = F.p
        self.k = F.k
        self.red = np.array([list(r) for r in F._red], dtype=np.int64)

    def mul(self, A, B):
        p, k = self.p, self.k
        conv = np.zeros((2 * k - 1, A.shape[1]), dtype=np.int64)
        for i in range(k):
            conv[i:i + k] += A[i] * B
        conv %= p
        out = conv[:k]
        for d in range(2 * k - 2, k - 1, -1):
            out += self.red[d - k][:, None] * conv[d]
        return out % p

    def pack(self, A):
        acc = A[-1].copy()
        for i in range(self.k - 2, -1, -1):
            acc *= self.p
            acc += A[i]
        return acc


def _horner_ext(ops, X, coeffs):
    # coeffs ascending, (k, 1) digit columns
    acc = np.repeat(coeffs[-1], X.shape[1], axis=1)
    for c in reversed(coeffs[:-1]):
        acc = ops.mul(acc, X)
        if c.any():
            acc += c
            acc %= ops.p
    return acc


def _walk(ops, coeffs, lanes):
    """Packed f(x0 + t) for every lane x0, one array per t = 0..p-1."""
    p, k = ops.p, ops.k
    d = len(coeffs) - 1
    X = np.zeros((k, lanes.size), dtype=np.int64)
    v = lanes.copy()
    for i in range(1, k):
        X[i] = v % p
        v //= p
    vals = []
    for t in range(min(p, d + 1)):
        X[0] = t
        vals.append(_horner_ext(ops, X, coeffs))
        yield ops.pack(vals[-1])
    if p <= d + 1:
        return
    del X
    # forward differences in place: afterwards vals[d - j] holds the
    # j-th backward difference at t = d
    for j in range(1, d + 1):
        for i in range(d - j + 1):
            np.subtract(vals[i + 1], vals[i], out=vals[i])
            vals[i] %= p
    # unsigned, so that min(s, s - p) reduces a sum s < 2p
    D = [vals[d - j].view(np.uint64) for j in range(d + 1)]
    up = np.uint64(p)
    for _ in range(d + 1, p):
        for j in range(d - 1, -1, -1):
            Dj = D[j]
            Dj += D[j + 1]
            np.minimum(Dj, Dj - up, out=Dj)
        yield ops.pack(D[0])


def _lane_chunks(p, k, d):
    # the walk keeps d + 2 live (k, lanes) arrays: 2 k _CHUNK int64 in all
    n = p ** (k - 1)
    step = max(1, 2 * _CHUNK // (d + 2))
    for start in range(0, n, step):
        yield np.arange(start, min(start + step, n), dtype=np.int64)


def _count_ext(F, fcoeffs):
    ops = _ExtOps(F)
    p, k = F.p, F.k
    flags = np.zeros(F.q, dtype=bool)
    zero = np.zeros((k, 1), dtype=np.int64)
    one = np.eye(k, 1, dtype=np.int64)
    square = [zero, zero, one]
    for lanes in _lane_chunks(p, k, 2):
        for packed in _walk(ops, square, lanes):
            flags[packed] = True
    coeffs = [np.array(c, dtype=np.int64).reshape(k, 1) for c in fcoeffs]
    S = 0
    Z = 0
    for lanes in _lane_chunks(p, k, len(coeffs) - 1):
        for packed in _walk(ops, coeffs, lanes):
            S += int(np.count_nonzero(np.take(flags, packed)))
            Z += int(np.count_nonzero(packed == 0))
    return 1 + 2 * S - Z


def _count_prime(F, fcoeffs):
    p = F.p
    flags = np.zeros(p, dtype=bool)
    half = np.arange((p + 1) // 2, dtype=np.int64)
    flags[half * half % p] = True
    S = 0
    Z = 0
    coeffs = [c % p for c in fcoeffs]
    for start in range(0, p, _CHUNK):
        x = np.arange(start, min(start + _CHUNK, p), dtype=np.int64)
        acc = np.full(x.shape, coeffs[-1], dtype=np.int64)
        for c in reversed(coeffs[:-1]):
            acc = (acc * x + c) % p
        S += int(flags[acc].sum())
        Z += int((acc == 0).sum())
    return 1 + 2 * S - Z


def check_enumerable(p, k, budget):
    """Raise BudgetExceeded unless F_{p^k} can be enumerated.

    The field must fit the budget, and the int64 arithmetic above must
    stay exact: p^2 < 2^63 over F_p, k p^2 < 2^63 and q < 2^63 over an
    extension.  Nothing is allocated here.
    """
    q = p ** k
    if q > budget:
        raise BudgetExceeded(
            f"field size {q} exceeds enumeration budget {budget}")
    if k * p * p >= _INT64_LIMIT or q >= _INT64_LIMIT:
        raise BudgetExceeded(
            f"enumerating the field of size {q} (p = {p}, k = {k}) would "
            f"overflow int64: it needs k p^2 and q below 2^63")


def count_curve_points(F, fcoeffs, budget):
    """#{(x,y) : y^2 = f(x)} + 1 over the field described by F."""
    check_enumerable(F.p, F.k, budget)
    if F.k == 1:
        return _count_prime(F, fcoeffs)
    return _count_ext(F, fcoeffs)
