"""Polynomial arithmetic, factoring and roots, Dickson and Legendre
families."""

import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypercount import polys
from hypercount.errors import (DivisionByZero, IndexTooLargeForCharacteristic,
                               InternalError)
from hypercount.fields import (embed, make_extension, make_prime_field,
                               prime_factors)
from reference import legendre_divided

# small fields, so every element can be tried: F_p and F_{p^2}
FIELDS = [make_prime_field(7), make_prime_field(13),
          make_extension(make_prime_field(5), 2),
          make_extension(make_prime_field(7), 2)]


def _p(F, *ints):
    return [F.coerce(v) for v in ints]


def test_mul_and_eval():
    F = make_prime_field(7)
    prod = polys.mul(F, _p(F, 1, 1), _p(F, -1, 1))  # (x+1)(x-1)
    assert prod == _p(F, 6, 0, 1)
    assert polys.evaluate(F, prod, F.from_int(3)) == F.from_int(1)


def test_divmod_gcd():
    F = make_prime_field(13)
    f = polys.mul(F, _p(F, 2, 1), _p(F, 5, 0, 1))
    q, r = polys.divmod_poly(F, f, _p(F, 2, 1))
    assert r == [] and q == _p(F, 5, 0, 1)
    with pytest.raises(DivisionByZero):
        polys.divmod_poly(F, f, [])
    g = polys.mul(F, _p(F, 2, 1), _p(F, 1, 1))
    assert polys.gcd_poly(F, f, g) == _p(F, 2, 1)  # monic gcd
    # gcd with zero normalizes the other argument to monic
    assert polys.gcd_poly(F, polys.scale(F, f, F.from_int(3)), []) \
        == polys.monic(F, f)


def test_xgcd_identity():
    F = make_prime_field(11)
    rng = random.Random(1)
    for _ in range(10):
        f = [F.rand(rng) for _ in range(4)] + [F.one]
        g = [F.rand(rng) for _ in range(3)] + [F.one]
        d, u, v = polys.xgcd_poly(F, f, g)
        lhs = polys.add(F, polys.mul(F, u, f), polys.mul(F, v, g))
        assert lhs == d


def test_roots_in_prime_field():
    F = make_prime_field(7)
    assert polys.roots_in_field(F, _p(F, -1, 0, 1)) == [1, 6]
    assert polys.roots_in_field(F, _p(F, 1, 0, 1)) == []
    # construct-then-solve with a repeated factor thrown in
    F101 = make_prime_field(101)
    want = [3, 17, 44, 90]
    f = [F101.one]
    for r in want + [17]:
        f = polys.mul(F101, f, _p(F101, -r, 1))
    assert polys.roots_in_field(F101, f) == want


def test_roots_in_extension_field():
    F = make_prime_field(7)
    K = make_extension(F, 2)
    # x^2 + 1 has no roots mod 7 but splits over F_49
    f = [K.one, K.zero, K.one]
    rs = polys.roots_in_field(K, f)
    assert len(rs) == 2
    for r in rs:
        assert K.add(K.mul(r, r), K.one) == K.zero


def test_dickson_small_and_identity():
    F = make_prime_field(13)
    alpha = F.from_int(5)
    d2 = polys.dickson(F, 2, alpha)
    assert d2 == [F.neg(F.add(alpha, alpha)), F.zero, F.one]  # x^2 - 2 alpha
    # D_g(t + alpha/t) = t^g + (alpha/t)^g
    rng = random.Random(4)
    for g in (2, 3, 4, 5, 7):
        dg = polys.dickson(F, g, alpha)
        for _ in range(10):
            t = F.rand(rng)
            if t == F.zero:
                continue
            u = F.add(t, F.div(alpha, t))
            lhs = polys.evaluate(F, dg, u)
            rhs = F.add(F.pow(t, g), F.pow(F.div(alpha, t), g))
            assert lhs == rhs


def test_dickson_matches_quotient_bracket():
    # D_4(x, b^(1/4)) = x^4 - 4 b^(1/4) x^2 + 2 sqrt(b)
    F = make_prime_field(17)
    for b4 in (2, 3, 5):
        alpha = F.from_int(b4)
        sqrtb = F.mul(alpha, alpha)
        d4 = polys.dickson(F, 4, alpha)
        want = [F.add(sqrtb, sqrtb), F.zero,
                F.neg(F.from_int(4 * b4)), F.zero, F.one]
        assert d4 == want


def test_legendre_eval_basics():
    F = make_prime_field(101)
    x = F.from_int(3)
    assert polys.legendre_eval(F, 0, x) == F.one
    assert polys.legendre_eval(F, 1, x) == x
    # P_2(3) = (3*9 - 1)/2 = 13
    assert polys.legendre_eval(F, 2, x) == F.from_int(13)
    with pytest.raises(IndexTooLargeForCharacteristic):
        polys.legendre_eval(F, 101, x)


def _legendre_coeff_oracle(F, m):
    """P_m as a coefficient list via 2^{-m} sum C(m,k)^2 (x-1)^{m-k} (x+1)^k.

    Independent of the recurrence; exact integer expansion reduced into F.
    """
    acc = [0] * (m + 1)
    for k in range(m + 1):
        term = [comb(m, k) ** 2]
        for _ in range(m - k):
            term = polys._int_poly_mul(term, [-1, 1])
        for _ in range(k):
            term = polys._int_poly_mul(term, [1, 1])
        for i, t in enumerate(term):
            acc[i] += t
    inv2m = F.inv(F.pow(F.from_int(2), m))
    return polys.trim(F, [F.mul(F.from_int(t), inv2m) for t in acc])


def test_legendre_eval_matches_coefficient_oracle():
    for p in (101, 103):
        F = make_prime_field(p)
        rng = random.Random(5)
        for m in list(range(0, 65, 7)) + [64]:
            oracle = _legendre_coeff_oracle(F, m)
            for _ in range(8):
                x = F.rand(rng)
                assert polys.legendre_eval(F, m, x) == \
                    polys.evaluate(F, oracle, x)


# H_n(x, B) = sqrt(B)^n P_n(x / sqrt(B)) against the recurrence that
# divides by n at every step, in the field where sqrt(B) lives
LEGENDRE_FIELDS = [make_prime_field(101),
                   make_extension(make_prime_field(13), 2)]


def _nonsquare(F):
    return next(x for x in (_element(F, n) for n in range(1, F.q))
                if F.legendre(x) == -1)


@settings(max_examples=60)
@given(st.data())
def test_homogeneous_legendre_matches_divided_recurrence(data):
    F = data.draw(st.sampled_from(LEGENDRE_FIELDS))
    n = data.draw(st.integers(0, F.p - 1))
    x = _element(F, data.draw(st.integers(0, F.q - 1)))
    z = _element(F, data.draw(st.integers(1, F.q - 1)))
    square = data.draw(st.booleans())
    B = F.mul(z, z) if square else F.mul(F.mul(z, z), _nonsquare(F))
    K = F if square else make_extension(F.pf, 2 * F.k)
    sb = K.sqrt(embed(B, F, K))
    want = K.mul(K.pow(sb, n),
                 legendre_divided(K, n, K.div(embed(x, F, K), sb)))
    assert embed(polys.legendre_eval(F, n, x, B), F, K) == want
    assert polys.legendre_eval(F, n, x) == legendre_divided(F, n, x)


def test_squarefree_and_derivative():
    F = make_prime_field(7)
    f = polys.mul(F, _p(F, 1, 1), _p(F, 1, 1))
    assert not polys.is_squarefree(F, f)
    assert polys.is_squarefree(F, _p(F, 6, 0, 1))
    assert polys.derivative(F, _p(F, 4, 0, 1)) == _p(F, 0, 2)


def test_int_poly_mul():
    assert polys._int_poly_mul([1, 2], [3, 4]) == [3, 10, 8]
    assert polys._int_poly_mul([7, -1, 1], [7, -1, 1]) == [49, -14, 15, -2, 1]


def _element(F, n):
    """The element of F whose base-p digits are those of n."""
    return F.from_digits([n // F.p ** i % F.p for i in range(F.k)])


@st.composite
def field_and_polys(draw, count, monic=False):
    """A field from FIELDS and `count` polynomials of degree below its
    characteristic (at most 6); monic ones have degree >= 1."""
    F = draw(st.sampled_from(FIELDS))
    top = min(F.p - 1, 6)
    out = []
    for _ in range(count):
        ns = draw(st.lists(st.integers(0, F.q - 1),
                           min_size=1 if monic else 0, max_size=top))
        f = [_element(F, n) for n in ns]
        out.append(f + [F.one] if monic else polys.trim(F, f))
    return (F, *out)


def _rabin_irreducible(F, f):
    """Rabin's test for monic f: f | x^(q^n) - x and, for every prime r
    dividing n = deg f, gcd(x^(q^(n/r)) - x, f) = 1."""
    n = polys.degree(f)
    if n <= 0:
        return False
    x = polys.x_poly(F)

    def frob_power(m):
        h = x
        for _ in range(m):
            h = polys.powmod(F, h, F.q, f)
        return h

    if polys.rem(F, frob_power(n), f) != polys.rem(F, x, f):
        return False
    return all(polys.degree(polys.gcd_poly(
        F, polys.sub(F, frob_power(n // r), x), f)) == 0
        for r in prime_factors(n))


@settings(max_examples=60)
@given(field_and_polys(2))
def test_factor_rebuilds_monic_f(case):
    F, f, h = case
    # f h^2, for repeated factors, while its degree stays below p
    fh2 = polys.mul(F, f, polys.mul(F, h, h))
    if fh2 and polys.degree(fh2) < F.p:
        f = fh2
    if not f:
        return
    factors = polys.factor(F, f)
    rebuilt = [F.one]
    for irr, m in factors:
        assert _rabin_irreducible(F, irr) and m >= 1
        for _ in range(m):
            rebuilt = polys.mul(F, rebuilt, irr)
    assert rebuilt == polys.monic(F, f)
    assert len({tuple(irr) for irr, _ in factors}) == len(factors)


@settings(max_examples=60)
@given(field_and_polys(1, monic=True))
def test_ddf_irreducibility_matches_rabin(case):
    F, f = case
    assert (polys.ddf(F, f) == [(f, polys.degree(f))]) == \
        _rabin_irreducible(F, f)


@settings(max_examples=40)
@given(field_and_polys(1))
def test_roots_in_field_match_evaluation(case):
    F, f = case
    if polys.degree(f) < 1:
        return
    want = [x for x in (_element(F, n) for n in range(F.q))
            if polys.evaluate(F, f, x) == F.zero]
    assert polys.roots_in_field(F, f) == sorted(want, key=F.sort_key)


@settings(max_examples=60)
@given(field_and_polys(2), st.booleans())
def test_divmod_identity(case, make_monic):
    F, f, g = case
    if not g:
        return
    if make_monic:
        g = polys.monic(F, g)
    q, r = polys.divmod_poly(F, f, g)
    assert polys.add(F, polys.mul(F, q, g), r) == f
    assert polys.degree(r) < polys.degree(g)


@settings(max_examples=60)
@given(field_and_polys(2))
def test_xgcd_bezout_and_divides(case):
    F, f, g = case
    if not f and not g:
        return
    d, u, v = polys.xgcd_poly(F, f, g)
    assert polys.add(F, polys.mul(F, u, f), polys.mul(F, v, g)) == d
    assert d[-1] == F.one
    assert not polys.rem(F, f, d) and not polys.rem(F, g, d)


class _StuckAtZero:
    def randrange(self, n):
        return 0


def test_edf_gives_up_instead_of_looping():
    F = make_prime_field(7)
    f = polys.mul(F, _p(F, -1, 1), _p(F, -2, 1))
    with pytest.raises(InternalError):
        polys.edf(F, f, 1, _StuckAtZero())
