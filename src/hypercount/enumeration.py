"""Vectorized exhaustive point counting over small finite fields.

Counts solutions of y^2 = f(x) (plus the single point at infinity of the
odd-degree model) by enumerating every x in chunks, with a precomputed
square-flag table indexed by packed digit vectors. For each x the fiber
contributes 1 + chi2(f(x)) points, so the total is 1 + 2S - Z where S is the
number of x with f(x) a square (zero included) and Z the number of zeros.

int64 stays exact: digit products are < p^2 and at most k of them accumulate
before a reduction, and packed indices are < q.  `check_enumerable` refuses
any field where that fails, whatever the budget.
"""

import numpy as np

from .errors import BudgetExceeded

_CHUNK = 1 << 16
_INT64_LIMIT = 1 << 63


def _digit_chunks(p, k, q):
    for start in range(0, q, _CHUNK):
        n = min(_CHUNK, q - start)
        v = np.arange(start, start + n, dtype=np.int64)
        digs = np.empty((n, k), dtype=np.int64)
        for i in range(k):
            digs[:, i] = v % p
            v = v // p
        yield digs


class _ExtOps:
    """Batch arithmetic on (n, k) digit arrays for one extension field."""

    def __init__(self, F):
        self.p = F.p
        self.k = F.k
        self.red = np.array([list(r) for r in F._red], dtype=np.int64)
        self.pack_vec = np.array([F.p ** i for i in range(F.k)],
                                 dtype=np.int64)

    def mul(self, A, B):
        p, k = self.p, self.k
        conv = np.zeros((A.shape[0], 2 * k - 1), dtype=np.int64)
        for i in range(k):
            Ai = A[:, i]
            for j in range(k):
                conv[:, i + j] += Ai * B[:, j]
        conv %= p
        out = conv[:, :k]
        for d in range(2 * k - 2, k - 1, -1):
            out += conv[:, d, None] * self.red[d - k][None, :]
        return out % p

    def const(self, n, digits):
        A = np.empty((n, self.k), dtype=np.int64)
        A[:] = np.array(digits, dtype=np.int64)[None, :]
        return A

    def pack(self, A):
        return A @ self.pack_vec


def _horner_ext(ops, X, coeffs):
    # coeffs ascending, raw digit tuples
    n = X.shape[0]
    acc = ops.const(n, coeffs[-1])
    for c in reversed(coeffs[:-1]):
        acc = ops.mul(acc, X)
        if any(c):
            acc = (acc + ops.const(n, c)) % ops.p
    return acc


def _count_ext(F, fcoeffs):
    ops = _ExtOps(F)
    q = F.q
    flags = np.zeros(q, dtype=bool)
    flags[0] = True
    for X in _digit_chunks(F.p, F.k, q):
        sq = ops.mul(X, X)
        flags[ops.pack(sq)] = True
    S = 0
    Z = 0
    coeffs = [list(c) for c in fcoeffs]
    for X in _digit_chunks(F.p, F.k, q):
        vals = _horner_ext(ops, X, coeffs)
        packed = ops.pack(vals)
        S += int(flags[packed].sum())
        Z += int((packed == 0).sum())
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
