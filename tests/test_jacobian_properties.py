"""Property tests for the Jacobian group law.

The prime-field composition in jac_add is checked against Cantor's
composition (curves._cantor_add) on random divisors, on the cases it
hands back to Cantor (a shared root, y = 0 at a doubled point, D + (-D)),
and the non-adjacent-form scalar multiplication against repeated
addition.  Every result must be a valid reduced Mumford pair.
"""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercount import polys
from hypercount.curves import (_cantor_add, curve_from_ab, is_identity,
                               jac_add, jac_identity, jac_neg,
                               jac_scalar_mul, random_divisor)
from hypercount.errors import SingularCurve
from hypercount.fields import make_extension, make_prime_field

from reference import mumford_valid

PRIMES = (3, 5, 7, 11, 1049549)
PRIME_GENUS = [(p, g) for p in PRIMES for g in (1, 2, 3, 4) if g % p]


def _curve(p, g, a, b, k=1):
    F = make_extension(make_prime_field(p), k)
    try:
        return curve_from_ab(F, g, F.from_int(a), F.from_int(b))
    except SingularCurve:
        assume(False)


@st.composite
def curves(draw, primes=PRIMES, genera=(1, 2, 3, 4), k=1):
    p = draw(st.sampled_from(primes))
    g = draw(st.sampled_from([g for g in genera if g % p]))
    return _curve(p, g, draw(st.integers(0, p - 1)),
                  draw(st.integers(1, p - 1)), k)


def _ab(p):
    return st.tuples(st.integers(0, p - 1), st.integers(1, p - 1))


def _point(C, rng):
    """A random affine point as a degree-1 Mumford pair."""
    F = C.F
    while True:
        x = F.rand(rng)
        y = F.sqrt(polys.evaluate(F, C.f, x))
        if y is not None:
            return ([F.neg(x), F.one], [y] if y != F.zero else [])


def _add_checked(C, D1, D2):
    got = jac_add(C, D1, D2)
    assert got == _cantor_add(C, D1, D2)
    assert mumford_valid(C, got)
    return got


@pytest.mark.parametrize("p, g", PRIME_GENUS)
@settings(max_examples=15, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_kernel_matches_cantor_on_random_divisors(p, g, data, seed):
    C = _curve(p, g, *data.draw(_ab(p)))
    rng = random.Random(seed)
    # sums of two samples reach degree g more often than one sample does
    D1 = _add_checked(C, random_divisor(C, rng), random_divisor(C, rng))
    D2 = _add_checked(C, random_divisor(C, rng), random_divisor(C, rng))
    S = _add_checked(C, D1, D2)
    _add_checked(C, D1, D1)
    _add_checked(C, S, S)
    _add_checked(C, S, D2)
    _add_checked(C, jac_identity(C), S)


@pytest.mark.parametrize("p, g", PRIME_GENUS)
@settings(max_examples=10, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32))
def test_kernel_matches_cantor_on_degenerate_inputs(p, g, data, seed):
    C = _curve(p, g, *data.draw(_ab(p)))
    rng = random.Random(seed)
    F = C.F
    D = random_divisor(C, rng)
    # D + (-D) cancels to the identity
    assert is_identity(_add_checked(C, D, jac_neg(C, D)))
    # (0, 0) lies on every curve of the family: y = 0 at a doubled point
    P0 = ([F.zero, F.one], [])
    _add_checked(C, P0, P0)
    if C.g >= 2:
        D0 = _add_checked(C, P0, _point(C, rng))
        _add_checked(C, D0, D0)
    # u1, u2 sharing a root: P + Q1 against P + Q2 and against -P + Q2
    if C.g >= 2:
        P = _point(C, rng)
        D1 = _add_checked(C, P, _point(C, rng))
        D2 = _add_checked(C, P, _point(C, rng))
        D3 = _add_checked(C, jac_neg(C, P), _point(C, rng))
        _add_checked(C, D1, D2)
        _add_checked(C, D1, D3)


def _repeated(C, n, D):
    acc = jac_identity(C)
    step = D if n >= 0 else jac_neg(C, D)
    for _ in range(abs(n)):
        acc = _cantor_add(C, acc, step)
    return acc


SPECIAL_N = [0, 1, -1] + [2**k + e for k in range(1, 7) for e in (-1, 1)]


@settings(max_examples=100, deadline=None)
@given(curves(), st.integers(0, 2**32),
       st.one_of(st.sampled_from(SPECIAL_N), st.integers(-70, 70)))
def test_naf_scalar_mul_matches_repeated_addition(C, seed, n):
    D = random_divisor(C, random.Random(seed))
    got = jac_scalar_mul(C, n, D)
    assert mumford_valid(C, got)
    assert got == _repeated(C, n, D)


@settings(max_examples=60, deadline=None)
@given(curves(), st.integers(0, 2**32), st.integers(-2**40, 2**40),
       st.integers(-2**40, 2**40))
def test_scalar_mul_is_linear_in_n(C, seed, m, n):
    D = random_divisor(C, random.Random(seed))
    assert jac_add(C, jac_scalar_mul(C, m, D), jac_scalar_mul(C, n, D)) \
        == jac_scalar_mul(C, m + n, D)


@settings(max_examples=20, deadline=None)
@given(curves(primes=(3, 5, 7), genera=(1, 2), k=2), st.integers(0, 2**32),
       st.one_of(st.sampled_from(SPECIAL_N[:9]), st.integers(-20, 20)))
def test_naf_scalar_mul_over_extension_field(C, seed, n):
    D = random_divisor(C, random.Random(seed))
    got = jac_scalar_mul(C, n, D)
    assert mumford_valid(C, got)
    assert got == _repeated(C, n, D)
