"""Answer checks built from the benchmark's own arithmetic.

Nothing here imports the package under test.  Point counts come from a
vectorized enumeration over F_p and F_{p^k} = F_p[t]/(m); over F_{p^k}
the quadratic character of z is the Legendre symbol of its norm, so
only products and the Frobenius map (linear over F_p) are needed.
chi mod p comes from the Cartier-Manin matrix, whose entries are read
off the trinomial expansion of f^((p-1)/2).

Each check function returns the names of the checks that failed; an
empty list means the answer passed every check that applied.
"""

from math import comb, isqrt

import numpy as np

# largest field that is enumerated for a check, in elements
ENUM_LIMIT = 1_500_000
_CHUNK = 1 << 17


# --- polynomials over F_p: ascending coefficient lists ---

def _trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _polrem(f, m, p):
    """f mod m, m monic."""
    f = [c % p for c in f]
    k = len(m) - 1
    for d in range(len(f) - 1, k - 1, -1):
        c = f[d]
        if c:
            for i in range(k + 1):
                f[d - k + i] = (f[d - k + i] - c * m[i]) % p
    return _trim(f[:k])


def _polmulmod(f, g, m, p):
    out = [0] * max(len(f) + len(g) - 1, 0)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] += x * y
    return _polrem(out, m, p)


def _polpowmod(f, e, m, p):
    acc, base = [1], _polrem(f, m, p)
    while e:
        if e & 1:
            acc = _polmulmod(acc, base, m, p)
        base = _polmulmod(base, base, m, p)
        e >>= 1
    return acc


def _polgcd(f, g, p):
    f, g = _trim([c % p for c in f]), _trim([c % p for c in g])
    while g:
        inv = pow(g[-1], -1, p)
        g = [c * inv % p for c in g]
        f, g = g, _polrem(f, g, p)
    return f


def _prime_divisors(n):
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + ([n] if n > 1 else [])


def irreducible(p, k):
    """First monic irreducible of degree k (Rabin's test), ascending."""
    t = [0, 1]
    for idx in range(p ** k):
        m = [(idx // p ** i) % p for i in range(k)] + [1]
        if m[0] == 0 and k > 1:
            continue
        if _polpowmod(t, p ** k, m, p) != _polrem(t, m, p):
            continue
        if all(len(_polgcd(m, _polsub(_polpowmod(t, p ** (k // r), m, p), t, p),
                           p)) == 1
               for r in _prime_divisors(k)):
            return m
    raise ValueError(f"no irreducible of degree {k} over F_{p}")


def _polsub(f, g, p):
    n = max(len(f), len(g))
    f, g = f + [0] * (n - len(f)), g + [0] * (n - len(g))
    return _trim([(x - y) % p for x, y in zip(f, g)])


# --- vectorized enumeration ---

class _Ext:
    """F_{p^k} as F_p[t]/(m); an element array has shape (k, n)."""

    def __init__(self, p, k):
        self.p, self.k = p, k
        self.m = irreducible(p, k)
        frob = np.zeros((k, k), dtype=np.int64)
        for i in range(k):
            col = _polpowmod([0] * i + [1], p, self.m, p)
            frob[:len(col), i] = col
        self.frob = frob

    def mul(self, A, B):
        # entries stay below k p^3 < 2^63 for the fields enumerated here,
        # so reduce mod p only where a row is consumed or returned
        p, k, m = self.p, self.k, self.m
        C = np.zeros((2 * k - 1, A.shape[1]), dtype=np.int64)
        for i in range(k):
            C[i:i + k] += A[i] * B
        for d in range(2 * k - 2, k - 1, -1):
            top = C[d] % p
            for i in range(k):
                if m[i]:
                    C[d - k + i] -= top * m[i]
        return C[:k] % p

    def power(self, X, e):
        acc, base = None, X
        while e:
            if e & 1:
                acc = base if acc is None else self.mul(acc, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return acc

    def norm(self, A):
        """Product of the k conjugates; lands in F_p (row 0)."""
        N, X = A, A
        for _ in range(self.k - 1):
            X = (self.frob @ X) % self.p
            N = self.mul(N, X)
        return N[0]


def _character_table(p):
    sq = np.zeros(p, dtype=bool)
    x = np.arange(p, dtype=np.int64)
    sq[x * x % p] = True
    tab = np.where(sq, 1, -1).astype(np.int64)
    tab[0] = 0
    return tab


def count_points(p, k, f):
    """#C(F_{p^k}) for y^2 = f(x), deg f odd (one point at infinity)."""
    q = p ** k
    f = [c % p for c in f]
    terms = [(e, c) for e, c in enumerate(f) if c]
    tab = _character_table(p)
    ext = _Ext(p, k) if k > 1 else None
    total = 0
    for start in range(0, q, _CHUNK):
        idx = np.arange(start, min(start + _CHUNK, q), dtype=np.int64)
        if ext is None:
            acc = np.full(idx.shape, f[-1], dtype=np.int64)
            for c in reversed(f[:-1]):
                acc = (acc * idx + c) % p
        else:
            # f is sparse (three terms for the family): sum c x^e
            X = np.stack([(idx // p ** i) % p for i in range(k)])
            acc = np.zeros_like(X)
            for e, c in terms:
                acc = (acc + c * ext.power(X, e)) % p
            acc = ext.norm(acc)
        total += int(tab[acc].sum())
    return q + 1 + total


def family_f(g, a, b):
    """x^(2g+1) + a x^(g+1) + b x, ascending."""
    f = [0] * (2 * g + 2)
    f[2 * g + 1], f[g + 1], f[1] = 1, a, b
    return f


# --- L-polynomial arithmetic on the CLI's chi ---

def predicted_counts(chi, q, g, upto):
    """N_1..N_upto (upto <= g) implied by chi (ascending), by Newton's
    identities on the inverse roots."""
    L = list(reversed(chi))            # L_0 .. L_2g
    e = [(-1) ** j * L[j] for j in range(2 * g + 1)]
    s = []
    for i in range(1, upto + 1):
        acc = (-1) ** (i - 1) * i * e[i]
        for j in range(1, i):
            acc += (-1) ** (j - 1) * e[j] * s[i - j - 1]
        s.append(acc)
    return [q ** i + 1 - s[i - 1] for i in range(1, upto + 1)]


def weil_ok(chi, q, g):
    """|a_i| <= C(2g, i) q^(i/2) and chi(1) inside the Weil interval,
    with the interval widened to integers so no true answer fails."""
    L = list(reversed(chi))
    if any(L[i] ** 2 > comb(2 * g, i) ** 2 * q ** i for i in range(1, g + 1)):
        return False
    r = isqrt(4 * q)                   # r <= 2 sqrt(q) < r + 1
    return (q - r) ** g <= sum(chi) <= (q + r + 2) ** g


# --- Cartier-Manin matrix and chi mod p ---

def _powers(x, n, p):
    out = np.ones(n + 1, dtype=np.int64)
    v = 1
    for i in range(1, n + 1):
        v = v * x % p
        out[i] = v
    return out


def chi_mod_p(p, g, a, b):
    """T^g det(T I - W) mod p, W the Cartier-Manin matrix, ascending."""
    m = (p - 1) // 2
    fact = [1] * (m + 1)
    for i in range(1, m + 1):
        fact[i] = fact[i - 1] * i % p
    inv = [1] * (m + 1)
    inv[m] = pow(fact[m], -1, p)
    for i in range(m, 0, -1):
        inv[i - 1] = inv[i] * i % p
    inv = np.array(inv, dtype=np.int64)
    apow, bpow = _powers(a % p, m, p), _powers(b % p, m, p)

    def coeff(n):
        # f^m = x^m (x^2g + a x^g + b)^m: x^(2g i) (a x^g)^j b^k with
        # i + j + k = m contributes to x^(m + g (2i + j))
        s = n - m
        if s < 0 or s % g:
            return 0
        s //= g
        i = np.arange(max(0, s - m), s // 2 + 1, dtype=np.int64)
        if not len(i):
            return 0
        j, k = s - 2 * i, m - s + i
        t = inv[i] * inv[j] % p * inv[k] % p * apow[j] % p * bpow[k] % p
        return int(t.sum()) * fact[m] % p

    W = [[coeff(i * p - j) for j in range(1, g + 1)] for i in range(1, g + 1)]
    return [0] * g + _charpoly(W, p)


def _charpoly(A, p):
    """det(T I - A) mod p, ascending, by Faddeev-LeVerrier (n < p)."""
    n = len(A)
    c = [0] * (n + 1)
    c[n] = 1
    M = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[(sum(A[i][l] * M[l][j] for l in range(n))
               + (c[n - k + 1] if i == j else 0)) % p for j in range(n)]
             for i in range(n)]
        tr = sum(A[i][l] * M[l][i] for i in range(n) for l in range(n))
        c[n - k] = -tr * pow(k, -1, p) % p
    return c


# --- the checks ---

class Checker:
    """Checks outputs; memoizes the costly pieces per curve."""

    def __init__(self, enum_limit=ENUM_LIMIT):
        self.enum_limit = enum_limit
        self._counts = {}
        self._cm = {}

    def count(self, p, k, f):
        key = (p, k, tuple(f))
        if key not in self._counts:
            self._counts[key] = count_points(p, k, f)
        return self._counts[key]

    def chi_mod_p(self, p, g, a, b):
        key = (p, g, a % p, b % p)
        if key not in self._cm:
            self._cm[key] = chi_mod_p(p, g, a, b)
        return self._cm[key]

    def check_count(self, p, g, a, b, out):
        """Failed checks of a `count` answer (CLI JSON as a dict)."""
        if out.get("status") != "unique" or out.get("chi") is None:
            return ["unique"]
        chi = [int(c) for c in out["chi"]]
        q = p
        fails = []
        shape = (len(chi) == 2 * g + 1 and chi[-1] == 1
                 and all(chi[i] == q ** (g - i) * chi[2 * g - i]
                         for i in range(g))
                 and int(out["jacobian_order"]) == sum(chi)
                 and int(out["q"]) == q)
        if not shape:
            return ["shape"]
        if not weil_ok(chi, q, g):
            fails.append("weil")
        f = family_f(g, a, b)
        ks = [k for k in range(1, g + 1) if p ** k <= self.enum_limit]
        want = predicted_counts(chi, q, g, len(ks))
        for k in ks:
            if self.count(p, k, f) != want[k - 1]:
                fails.append(f"count_F_p^{k}")
        if g == 3:
            nE = self.count(p, 1, [0, b, a, 1])
            if sum(chi) % nE:
                fails.append("elliptic_divides")
        if [c % p for c in chi] != self.chi_mod_p(p, g, a, b):
            fails.append("cm_mod_p")
        return fails

    def check_chi_mod_p(self, p, g, a, b, out):
        """Failed checks of a `chi-mod-p --method both` answer."""
        fails = []
        if out.get("equal") is not True:
            fails.append("equal")
        own = self.chi_mod_p(p, g, a, b)
        for key in ("matrix_coeffs", "table_coeffs"):
            got = out.get(key)
            if got is None or [int(c) % p for c in got] != own:
                fails.append(key)
        coeffs = out.get("coeffs") or []
        N1 = self.count(p, 1, family_f(g, a, b))
        if len(coeffs) != 2 * g + 1 or \
                (int(coeffs[2 * g - 1]) - (N1 - 1)) % p:
            fails.append("trace_mod_p")
        return fails
