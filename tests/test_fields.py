"""Field tower: construction, arithmetic, roots, characters, embeddings."""

import random

import pytest

from hypercount.errors import (EvenCharacteristic, NoRootInField, NotPrime,
                               ZeroRadicand)
from hypercount.fields import (MR_DETERMINISTIC_BOUND, embed, introot,
                               is_prime, make_extension, make_prime_field,
                               next_prime, nth_root, nth_root_field_degree,
                               prime_factors, project)


def test_make_prime_field_basic():
    F = make_prime_field(7)
    assert F.p == 7 and F.k == 1 and F.q == 7
    with pytest.raises(NotPrime):
        make_prime_field(4)
    with pytest.raises(EvenCharacteristic):
        make_prime_field(2)


def test_make_prime_field_refuses_p_beyond_proven_primality():
    # the bound is itself a strong pseudoprime to the 13 bases in use
    bound = MR_DETERMINISTIC_BOUND
    assert is_prime(bound)
    for p in (bound, next_prime(bound)):
        with pytest.raises(NotPrime, match=str(bound)):
            make_prime_field(p)


def test_make_extension_identity_and_square():
    F = make_prime_field(7)
    assert make_extension(F, 1) is F
    K = make_extension(F, 2)
    assert K.q == 49 and K.base is F
    # the embedding is a ring hom: e(3)*e(3) = e(9) = e(2)
    e3 = embed(F.from_int(3), F, K)
    assert K.mul(e3, e3) == embed(F.from_int(2), F, K)


def test_tower_commutes():
    F = make_prime_field(7)
    K2 = make_extension(F, 2)
    K6 = make_extension(F, 6)
    # embedding F -> K2 -> K6 equals F -> K6
    for v in (1, 3, 5, 6):
        via = embed(embed(F.from_int(v), F, K2), K2, K6)
        assert via == embed(F.from_int(v), F, K6)


def test_frobenius_order():
    F = make_prime_field(5)
    K = make_extension(F, 3)
    rng = random.Random(1)
    for _ in range(10):
        x = K.rand(rng)
        y = x
        for _ in range(3):
            y = K.frobenius(y)
        assert y == x
    # frobenius fixes the prime subfield
    e = embed(F.from_int(3), F, K)
    assert K.frobenius(e) == e


def test_fermat_and_inverse():
    F = make_prime_field(101)
    rng = random.Random(2)
    for _ in range(20):
        x = F.from_int(rng.randrange(1, 101))
        assert F.pow(x, 100) == F.one
        assert F.mul(x, F.inv(x)) == F.one


def test_sqrt_prime_field():
    F = make_prime_field(7)
    assert F.sqrt(F.from_int(4)) == F.from_int(2)  # canonical: smaller rep
    assert F.sqrt(F.from_int(3)) is None  # squares mod 7: {0,1,2,4}
    assert F.sqrt(F.zero) == F.zero


def test_sqrt_consistency_both_field_kinds():
    for desc in (make_prime_field(13), make_extension(make_prime_field(3), 2),
                 make_extension(make_prime_field(7), 2)):
        rng = random.Random(3)
        for _ in range(15):
            x = desc.rand(rng)
            r = desc.sqrt(desc.mul(x, x))
            assert r in (x, desc.neg(x))


def test_nth_root_field_degree():
    F = make_prime_field(7)
    assert nth_root_field_degree(F, F.one, 5) == 1
    assert nth_root_field_degree(F, F.from_int(2), 3) == 3  # cubes mod 7: 1, 6
    assert nth_root_field_degree(F, F.from_int(4), 2) == 1
    with pytest.raises(ZeroRadicand):
        nth_root_field_degree(F, F.zero, 2)


def test_nth_root_degree_multiples_also_work():
    F = make_prime_field(7)
    b = F.from_int(2)
    k = nth_root_field_degree(F, b, 3)
    for mult in (1, 2):
        K = make_extension(F, k * mult)
        r = nth_root(F, b, 3, K)
        assert K.pow(r, 3) == embed(b, F, K)


def test_nth_root_values():
    F = make_prime_field(7)
    assert nth_root(F, F.from_int(4), 2, F) == F.from_int(2)
    with pytest.raises(NoRootInField):
        nth_root(F, F.from_int(2), 3, F)
    # defining identity for random b over the right extension
    F13 = make_prime_field(13)
    rng = random.Random(4)
    for _ in range(8):
        b = F13.from_int(rng.randrange(1, 13))
        k = nth_root_field_degree(F13, b, 8)
        K = make_extension(F13, k)
        r = nth_root(F13, b, 8, K)
        assert K.pow(r, 8) == embed(b, F13, K)


def test_legendre_symbol():
    F = make_prime_field(7)
    assert F.legendre(1) == 1
    assert F.legendre(0) == 0
    assert F.legendre(3) == -1
    # every element of F_7 is a square in F_49
    K = make_extension(F, 2)
    assert K.legendre(K.from_int(3)) == 1
    # Euler character on extensions still works through desc.legendre
    assert K.legendre(embed(F.from_int(3), F, K)) == 1  # everything in F_7
    # becomes a square in F_49 iff its norm is; 3 = g^(odd) gains a root


def test_project_inverts_embed():
    F = make_prime_field(11)
    K = make_extension(F, 3)
    rng = random.Random(5)
    for _ in range(10):
        x = F.rand(rng)
        assert project(embed(x, F, K), K, F) == x
    # an element outside the subfield projects to nothing
    g = K.gen if hasattr(K, "gen") else None
    y = K.rand(rng)
    while project(y, K, F) is not None:
        y = K.rand(rng)
    assert project(y, K, F) is None


def test_integer_helpers():
    assert is_prime(2) and is_prime(97) and not is_prime(91)
    assert is_prime(2**61 - 1)
    # strong pseudoprime to the bases 2..37; base 41 exposes it
    assert not is_prime(399165290221 * 798330580441)
    assert next_prime(13) == 17
    assert next_prime(14) == 17
    assert prime_factors(12) == [2, 3]
    assert prime_factors(97) == [97]
    assert introot(4 * 13, 2) == 7
    assert introot(26, 3) == 2


def test_element_wrapper_ops():
    F = make_prime_field(13)
    x = F.el(5)
    y = F.el(9)
    assert (x + y).rep == F.from_int(1)
    assert (x * y).rep == F.from_int(6)
    assert (x - x).rep == F.zero
    with pytest.raises(ValueError):
        K = make_extension(F, 2)
        x + K.el(1)


def test_digits_roundtrip():
    F = make_prime_field(5)
    K = make_extension(F, 3)
    rng = random.Random(6)
    for _ in range(5):
        x = K.rand(rng)
        d = K.digits(x)
        assert len(d) == 3 and all(0 <= v < 5 for v in d)
    assert F.digits(F.from_int(3)) == [3]
