"""Curve models, point counting, L-polynomials, and Cantor arithmetic."""

import random

import pytest

from hypercount import curves, polys
from hypercount.curves import (CurveSpec, LPoly, count_points, curve_from_ab,
                               curve_from_f, is_identity, jac_add,
                               jac_identity, jac_neg, jac_scalar_mul,
                               jacobian_order_check, jacobian_order_screen,
                               lpoly_from_counts, random_divisor, zeta_oracle)
from hypercount.enumeration import check_enumerable, count_curve_points
from hypercount.errors import (BadGenus, BudgetExceeded,
                               CharacteristicDividesGenus, InternalError,
                               SingularCurve)
from hypercount.fields import make_extension, make_prime_field

from reference import mumford_valid


def test_curve_from_ab_shape():
    F = make_prime_field(13)
    C = curve_from_ab(F, 3, 2, 5)
    # y^2 = x^7 + 2 x^4 + 5 x
    assert C.f == [0, 5, 0, 0, 2, 0, 0, 1]
    assert C.g == 3 and C.is_family
    assert (C.a, C.b) == (2, 5)


def test_curve_from_ab_rejects():
    F = make_prime_field(7)
    with pytest.raises(BadGenus):
        curve_from_ab(F, 0, 1, 1)
    with pytest.raises(BadGenus):
        curve_from_ab(F, 8, 1, 1)
    with pytest.raises(CharacteristicDividesGenus):
        curve_from_ab(F, 7, 1, 1)
    with pytest.raises(SingularCurve):
        curve_from_ab(F, 2, 1, 0)
    with pytest.raises(SingularCurve):
        # a^2 = 4b makes x^(2g+1) + a x^(g+1) + b x non-squarefree
        curve_from_ab(F, 2, 4, 4)


def test_curve_from_f_detects_family():
    F = make_prime_field(11)
    C = curve_from_f(F, [0, 3, 0, 7, 0, 1])
    assert C.is_family and (C.a, C.b) == (7, 3)
    D = curve_from_f(F, [1, 3, 0, 7, 0, 1])
    assert not D.is_family
    with pytest.raises(ValueError):
        CurveSpec(F, [0, 1, 0, 0, 0, 2])  # not monic
    with pytest.raises(BadGenus):
        CurveSpec(F, [1, 0, 1])  # even degree
    with pytest.raises(SingularCurve):
        CurveSpec(F, polys.mul(F, [1, 1], polys.mul(F, [1, 1], [0, 1])))


def _count_by_legendre(C):
    """Plain per-x tally, independent of the vectorized counter."""
    F = C.F
    n = 1  # the point at infinity
    for x in range(F.p):
        n += 1 + F.legendre(polys.evaluate(F, C.f, x))
    return n


def test_count_points_against_legendre_tally():
    rng = random.Random(7)
    for p in (5, 7, 11, 13, 31, 101):
        F = make_prime_field(p)
        for _ in range(4):
            g = rng.choice([1, 2, 3])
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p == 0 or g % p == 0:
                continue
            C = curve_from_ab(F, g, a, b)
            assert count_points(C, 1) == _count_by_legendre(C)


def test_count_points_extension_consistency():
    F = make_prime_field(7)
    C = curve_from_ab(F, 2, 1, 3)
    assert count_points(C, 2) == count_points(C.base_extend(2), 1)
    assert C.base_extend(1) is C
    with pytest.raises(BudgetExceeded):
        count_points(C, 2, budget=10)


def test_count_points_refuses_int64_overflow():
    # with the budget lifted, p^2 >= 2^63 would wrap numpy's int64
    # products; the guard refuses before anything is allocated
    F = make_prime_field(3037000507)
    with pytest.raises(BudgetExceeded, match="int64"):
        count_curve_points(F, [0, 1, 0, 1], 10 ** 30)
    check_enumerable(3037000499, 1, 10 ** 30)
    with pytest.raises(BudgetExceeded, match="int64"):
        check_enumerable(2147483659, 2, 10 ** 30)  # k p^2 >= 2^63
    with pytest.raises(BudgetExceeded, match="int64"):
        check_enumerable(3, 40, 10 ** 30)  # q >= 2^63


def test_zeta_oracle_refuses_over_budget_before_counting(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a point count ran")

    monkeypatch.setattr(curves, "count_curve_points", spy)
    C = curve_from_ab(make_prime_field(13), 3, 2, 5)
    with pytest.raises(BudgetExceeded,
                       match="field size 2197 exceeds enumeration budget 169"):
        zeta_oracle(C, budget=169)
    assert calls == []


def test_lpoly_functional_equation():
    L = LPoly(7, 2, (3, 5))
    assert L.coeffs() == [1, 3, 5, 21, 49]
    assert L.chi_coeffs() == [49, 21, 5, 3, 1]
    assert L.order() == sum(L.coeffs())
    with pytest.raises(ValueError):
        LPoly(7, 2, (3,))


def test_lpoly_power_sums_match_counts():
    F = make_prime_field(11)
    C = curve_from_ab(F, 2, 3, 4)
    L = zeta_oracle(C)
    s = L.power_sums(4)
    for k in (1, 2, 3, 4):
        assert count_points(C, k) == 11 ** k + 1 - s[k - 1]


def test_lpoly_from_counts_roundtrip():
    F = make_prime_field(13)
    for (g, a, b) in ((1, 2, 3), (2, 1, 5), (3, 4, 7)):
        C = curve_from_ab(F, g, a, b)
        counts = [count_points(C, k) for k in range(1, g + 1)]
        L = lpoly_from_counts(13, g, counts)
        assert L == zeta_oracle(C)
    with pytest.raises(InternalError):
        lpoly_from_counts(5, 2, [1, 2])  # no integer solution


def test_zeta_oracle_weil_bounds():
    import math
    rng = random.Random(3)
    for p in (7, 11, 13):
        F = make_prime_field(p)
        for _ in range(3):
            g = rng.choice([2, 3])
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p == 0:
                continue
            C = curve_from_ab(F, g, a, b)
            L = zeta_oracle(C)
            s = L.power_sums(g)
            for k in range(1, g + 1):
                assert abs(s[k - 1]) <= 2 * g * math.isqrt(p ** k + 1) + 2
            assert L.order() > 0


def test_base_extend_keeps_family():
    F = make_prime_field(5)
    C = curve_from_ab(F, 2, 1, 2)
    E = C.base_extend(2)
    assert E.g == 2 and E.F.q == 25 and E.is_family
    assert E.F.pf is F


# --- Mumford representation and the group law ---


def _curve13():
    return curve_from_ab(make_prime_field(13), 3, 2, 5)


def test_jacobian_identity_and_negation():
    C = _curve13()
    O = jac_identity(C)
    assert is_identity(O) and mumford_valid(C, O)
    for s in range(5):
        D = random_divisor(C, s)
        assert mumford_valid(C, D)
        assert is_identity(jac_add(C, D, jac_neg(C, D)))
        assert jac_add(C, D, O) == D


def test_jacobian_commutative_associative():
    C = _curve13()
    rng = random.Random(11)
    for _ in range(12):
        D1 = random_divisor(C, rng)
        D2 = random_divisor(C, rng)
        D3 = random_divisor(C, rng)
        assert jac_add(C, D1, D2) == jac_add(C, D2, D1)
        lhs = jac_add(C, jac_add(C, D1, D2), D3)
        rhs = jac_add(C, D1, jac_add(C, D2, D3))
        assert lhs == rhs
        assert mumford_valid(C, lhs)


def test_scalar_mul_matches_repeated_addition():
    C = _curve13()
    D = random_divisor(C, 2)
    acc = jac_identity(C)
    for n in range(8):
        assert jac_scalar_mul(C, n, D) == acc
        acc = jac_add(C, acc, D)
    assert jac_scalar_mul(C, -3, D) == jac_neg(C, jac_scalar_mul(C, 3, D))


def test_jacobian_order_kills_divisors():
    F = make_prime_field(7)
    C = curve_from_ab(F, 2, 1, 3)
    N = zeta_oracle(C).order()
    for s in range(6):
        assert is_identity(jac_scalar_mul(C, N, random_divisor(C, s)))
    assert jacobian_order_check(C, N, 6, seed=42)
    assert not jacobian_order_check(C, 1, 8, seed=42)
    with pytest.raises(ValueError):
        jacobian_order_check(C, N, 0, seed=42)
    with pytest.raises(ValueError):
        jacobian_order_check(C, 0, 3, seed=42)


def _killed_by_every_trial(C, N, trials, seed):
    # the per-order loop, one scalar multiplication per trial
    for t in range(trials):
        rng = random.Random(repr((seed, "order-check", t, C.F.p, C.F.k)))
        if not is_identity(jac_scalar_mul(C, N, random_divisor(C, rng))):
            return False
    return True


def test_jacobian_order_screen_matches_per_order_checks():
    rng = random.Random(5)
    for g, p in ((1, 101), (2, 13), (3, 11)):
        F = make_prime_field(p)
        while True:
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p:
                break
        C = curve_from_ab(F, g, a, b)
        N = zeta_oracle(C).order()
        d = rng.randrange(2, 3 * p)
        progression = [N + k * d for k in range(-3, 4) if N + k * d > 0]
        multiples = [3 * N, N, 2 * N, N + 1, N, 6 * N]
        unrelated = [rng.randrange(1, 4 * N) for _ in range(8)]
        for orders in (progression, multiples, unrelated):
            for trials in (1, 4):
                got = jacobian_order_screen(C, orders, trials, seed=7)
                assert got == [M for M in orders
                               if jacobian_order_check(C, M, trials, 7)]
                assert got == [M for M in orders
                               if _killed_by_every_trial(C, M, trials, 7)]
        assert N in jacobian_order_screen(C, progression, 4, seed=7)
    assert jacobian_order_screen(C, [], 3, seed=7) == []
    with pytest.raises(ValueError):
        jacobian_order_screen(C, [N], 0, seed=7)
    with pytest.raises(ValueError):
        jacobian_order_screen(C, [N, 0], 3, seed=7)


def test_mumford_valid_rejects():
    C = _curve13()
    F = C.F
    assert not mumford_valid(C, ([2, 2], []))        # u not monic
    assert not mumford_valid(C, ([0, 1], [1, 1]))    # deg v >= deg u
    assert not mumford_valid(C, ([1, 0, 0, 0, 1], []))  # deg u > g
    # v^2 - f not divisible by u
    x0 = F.from_int(3)
    y_bad = F.from_int(1 + polys.evaluate(F, C.f, x0))
    assert not mumford_valid(C, ([F.neg(x0), F.one], [y_bad]))


def test_group_law_over_extension_field():
    F = make_prime_field(5)
    K = make_extension(F, 2)
    C = curve_from_ab(K, 2, K.from_int(1), K.from_int(2))
    rng = random.Random(4)
    D1 = random_divisor(C, rng)
    D2 = random_divisor(C, rng)
    assert mumford_valid(C, jac_add(C, D1, D2))
    assert is_identity(jac_add(C, D1, jac_neg(C, D1)))
