"""Finite fields F_p and F_{p^k} with compatible embeddings and root machinery.

An element is a raw value: an int for prime fields and a tuple of k ints
(digits over F_p, ascending degree in the generator) for extensions. Every
layer passes raws together with their field descriptor, which does all the
arithmetic (F.add, F.mul, F.inv, ...); F.coerce turns an int or a digit
list into a raw. Descriptors are cached so the same parameters give the
identical object and raws from separate call sites stay compatible.
"""

import math
import random

from . import polys
from .config import DEFAULT_SEED
from .errors import (DivisionByZero, EvenCharacteristic, InternalError,
                     NoRootInField, NotPrime, ZeroRadicand)

# The first 13 primes as Miller-Rabin witnesses decide primality for every
# n below this bound (Sorenson and Webster, Math. Comp. 2017); above it
# is_prime is only a probable-prime test, so make_prime_field refuses such p.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_DETERMINISTIC_BOUND = 3317044064679887385961981


def is_prime(n):
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def next_prime(n):
    c = n + 1
    if c <= 2:
        return 2
    if c % 2 == 0:
        c += 1
    while not is_prime(c):
        c += 2
    return c


def prime_factors(n):
    """Sorted distinct prime factors by trial division; for small n only."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def introot(n, k):
    """floor(n^(1/k)) by integer Newton iteration."""
    if n < 0:
        raise ValueError("negative radicand")
    if k == 1 or n == 0:
        return n
    x = 1 << ((n.bit_length() - 1) // k + 1)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


class FieldDesc:
    """Arithmetic shared by both field types; the rest lives in subclasses."""

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def legendre(self, a):
        """Quadratic character: 0 at 0, else +1 for squares, -1 otherwise."""
        if a == self.zero:
            return 0
        t = self.pow(a, (self.q - 1) // 2)
        return 1 if t == self.one else -1


class PrimeField(FieldDesc):
    def __init__(self, p):
        self.p = p
        self.k = 1
        self.q = p
        self.modulus = None
        self.base = None
        self.pf = self
        self.zero = 0
        self.one = 1 % p

    def __repr__(self):
        return f"F_{self.p}"

    @property
    def tag(self):
        return f"F{self.p}"

    def coerce(self, x):
        if isinstance(x, int):
            return x % self.p
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def from_int(self, n):
        return n % self.p

    def from_digits(self, ds):
        if len(ds) > 1 and any(d % self.p for d in ds[1:]):
            raise ValueError("too many digits for a prime field")
        return ds[0] % self.p if ds else 0

    def digits(self, a):
        return [a]

    def sort_key(self, a):
        return (a,)

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def neg(self, a):
        return -a % self.p

    def mul(self, a, b):
        return a * b % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise DivisionByZero(f"inverse of 0 in {self!r}")
        return pow(a, self.p - 2, self.p)

    def pow(self, a, e):
        if e < 0:
            raise ValueError("negative exponent")
        a %= self.p
        if a and e >= self.p - 1:
            e %= self.p - 1
        return pow(a, e, self.p)

    def frobenius(self, a, j=1):
        return a % self.p

    def rand(self, rng):
        return rng.randrange(self.p)

    def sqrt(self, a):
        """Canonical square root (the smaller representative) or None."""
        p = self.p
        a %= p
        if a == 0:
            return 0
        if pow(a, (p - 1) // 2, p) != 1:
            return None
        if p % 4 == 3:
            r = pow(a, (p + 1) // 4, p)
        else:
            # Tonelli-Shanks
            q, s = p - 1, 0
            while q % 2 == 0:
                q //= 2
                s += 1
            z = 2
            while pow(z, (p - 1) // 2, p) != p - 1:
                z += 1
            m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
            while t != 1:
                i, tt = 0, t
                while tt != 1:
                    tt = tt * tt % p
                    i += 1
                b = pow(c, 1 << (m - i - 1), p)
                m, c = i, b * b % p
                t, r = t * c % p, r * b % p
        return min(r, p - r)


class ExtensionField(FieldDesc):
    def __init__(self, base, m, seed):
        self.base = base
        self.p = base.p
        self.k = base.k * m
        self.q = self.p ** self.k
        self.pf = base.pf
        self.seed = seed
        self.modulus = _find_irreducible(self.pf, self.k, seed)
        self.zero = (0,) * self.k
        one = [0] * self.k
        one[0] = 1
        self.one = tuple(one)
        self._red = self._reduction_rows()
        self._embed_cache = {}

    def __repr__(self):
        return f"F_{self.p}^{self.k}"

    @property
    def tag(self):
        return f"F{self.p}e{self.k}s{self.seed}"

    def _reduction_rows(self):
        # row j holds the digits of x^(k+j) mod modulus, j = 0..k-2
        p, k = self.p, self.k
        cur = [(-c) % p for c in self.modulus[:k]]
        rows = [tuple(cur)]
        for _ in range(k - 2):
            top = cur[k - 1]
            cur = [0] + cur[: k - 1]
            if top:
                first = rows[0]
                cur = [(cur[i] + top * first[i]) % p for i in range(k)]
            rows.append(tuple(cur))
        return rows

    def coerce(self, x):
        if isinstance(x, int):
            return self.from_int(x)
        if isinstance(x, (tuple, list)):
            return self.from_digits(list(x))
        raise TypeError(f"cannot coerce {x!r} into {self!r}")

    def from_int(self, n):
        out = [0] * self.k
        out[0] = n % self.p
        return tuple(out)

    def from_digits(self, ds):
        if len(ds) > self.k:
            raise ValueError("too many digits")
        out = [d % self.p for d in ds] + [0] * (self.k - len(ds))
        return tuple(out)

    def digits(self, a):
        return list(a)

    def sort_key(self, a):
        return tuple(a)

    def add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def neg(self, a):
        p = self.p
        return tuple(-x % p for x in a)

    def mul(self, a, b):
        p, k = self.p, self.k
        conv = [0] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        for d in range(2 * k - 2, k - 1, -1):
            c = conv[d] % p
            if c:
                row = self._red[d - k]
                for i in range(k):
                    conv[i] += c * row[i]
        return tuple(c % p for c in conv[:k])

    def inv(self, a):
        if a == self.zero:
            raise DivisionByZero(f"inverse of 0 in {self!r}")
        d, u, _ = polys.xgcd_poly(self.pf, polys.trim(self.pf, list(a)),
                                  list(self.modulus))
        if polys.degree(d) != 0:
            raise InternalError("modulus is not irreducible")
        return self.from_digits(u)

    def pow(self, a, e):
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            return self.one
        if a == self.zero:
            return self.zero
        if e >= self.q - 1:
            e %= self.q - 1
            if e == 0:
                return self.one
        result = self.one
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frobenius(self, a, j=1):
        return self.pow(a, self.p ** (j % self.k))

    def rand(self, rng):
        p = self.p
        return tuple(rng.randrange(p) for _ in range(self.k))

    def sqrt(self, a):
        if a == self.zero:
            return self.zero
        if self.legendre(a) != 1:
            return None
        if self.q % 4 == 3:
            r = self.pow(a, (self.q + 1) // 4)
            return min(r, self.neg(r))
        roots = polys.roots_in_field(self, [self.neg(a), self.zero, self.one],
                                     seed=self.seed)
        if not roots:
            raise InternalError("square lost its roots")
        return roots[0]


def _find_irreducible(pf, deg, seed):
    rng = random.Random(repr((seed, "modulus", pf.p, deg)))
    while True:
        coeffs = [rng.randrange(pf.p) for _ in range(deg)] + [1]
        # irreducible exactly when no factor of degree < deg splits off
        if polys.ddf(pf, coeffs) == [(coeffs, deg)]:
            return tuple(coeffs)


_PRIME_CACHE = {}
_EXT_CACHE = {}


def make_prime_field(p):
    if p == 2:
        raise EvenCharacteristic("characteristic 2 is not supported")
    got = _PRIME_CACHE.get(p)
    if got is not None:
        return got
    if p >= MR_DETERMINISTIC_BOUND:
        raise NotPrime(f"{p} is too large: primality is proven only "
                       f"below {MR_DETERMINISTIC_BOUND}")
    if p < 2 or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    F = PrimeField(p)
    _PRIME_CACHE[p] = F
    return F


def make_extension(base, m, seed=DEFAULT_SEED):
    """Degree-m extension of base, deterministic modulus for a given seed."""
    if m < 1:
        raise ValueError("extension degree must be >= 1")
    if m == 1:
        return base
    key = (id(base), m, seed)
    got = _EXT_CACHE.get(key)
    if got is not None:
        return got
    F = ExtensionField(base, m, seed)
    _EXT_CACHE[key] = F
    return F


def _generator_image(src, tgt):
    """Image of src's generator inside tgt; lex-min root, cached on tgt."""
    cached = tgt._embed_cache.get(id(src))
    if cached is not None:
        return cached[1]
    f = [tgt.from_int(c) for c in src.modulus]
    roots = polys.roots_in_field(tgt, f, seed=tgt.seed)
    if not roots:
        raise InternalError("source modulus has no root in the target field")
    gen = roots[0]
    # keep src alive so its id stays unique for the cache lifetime
    tgt._embed_cache[id(src)] = (src, gen)
    return gen


def embed(x, src, tgt):
    """Carry a raw element of src into tgt (src must be a subfield)."""
    if src is tgt:
        return x
    if src.p != tgt.p:
        raise ValueError("different characteristics")
    if tgt.k % src.k != 0:
        raise NoRootInField(f"{src!r} does not embed into {tgt!r}")
    if src.k == 1:
        return tgt.from_int(x)
    gen = _generator_image(src, tgt)
    acc = tgt.zero
    for d in reversed(src.digits(x)):
        acc = tgt.add(tgt.mul(acc, gen), tgt.from_int(d))
    return acc


def _solve_mod_p(p, cols, rhs):
    """Solve sum_j cols[j]*x_j = rhs over F_p; None when inconsistent."""
    rows, n = len(rhs), len(cols)
    A = [[cols[j][i] % p for j in range(n)] + [rhs[i] % p]
         for i in range(rows)]
    piv = []
    r = 0
    for c in range(n):
        pr = None
        for i in range(r, rows):
            if A[i][c]:
                pr = i
                break
        if pr is None:
            continue
        A[r], A[pr] = A[pr], A[r]
        inv = pow(A[r][c], p - 2, p)
        A[r] = [v * inv % p for v in A[r]]
        for i in range(rows):
            if i != r and A[i][c]:
                f = A[i][c]
                A[i] = [(A[i][j] - f * A[r][j]) % p for j in range(n + 1)]
        piv.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if A[i][n]:
            return None
    sol = [0] * n
    for i, c in enumerate(piv):
        sol[c] = A[i][n]
    return sol


def project(x, big, small):
    """Preimage of x under embed(small -> big), or None if x lies outside."""
    if small is big:
        return x
    if big.k % small.k != 0:
        raise ValueError("not a subfield")
    if small.k == 1:
        ds = big.digits(x)
        if any(ds[1:]):
            return None
        return ds[0]
    gen = _generator_image(small, big)
    cols = []
    cur = big.one
    for _ in range(small.k):
        cols.append(big.digits(cur))
        cur = big.mul(cur, gen)
    sol = _solve_mod_p(big.p, cols, big.digits(x))
    if sol is None:
        return None
    return small.from_digits(sol)


def nth_root_field_degree(F, b, m):
    """Smallest k >= 1 such that x^m - b has a root in F_{q^k}."""
    if b == F.zero:
        raise ZeroRadicand("0 has no meaningful root tower")
    if m < 1:
        raise ValueError("m must be >= 1")
    q = F.q
    for k in range(1, m + 1):
        qk = q ** k
        d = math.gcd(m, qk - 1)
        e = (qk - 1) // d
        # b has order dividing q-1, so the huge exponent reduces
        if F.pow(b, e % (q - 1)) == F.one:
            return k
    raise InternalError("m-th root generates degree larger than m")


def nth_root(F, b, m, target):
    """Deterministic m-th root of b inside target (lex-min of all roots)."""
    bt = embed(b, F, target)
    f = [target.neg(bt)] + [target.zero] * (m - 1) + [target.one]
    roots = polys.roots_in_field(target, f,
                                 seed=getattr(target, "seed", DEFAULT_SEED))
    if not roots:
        raise NoRootInField(f"x^{m} = {b!r} has no root in {target!r}")
    return roots[0]
