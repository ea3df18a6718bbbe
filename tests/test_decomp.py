"""Quotient curves, splitting fields, and the product decomposition."""

import random

import pytest

from hypercount import polys
from hypercount.curves import curve_from_ab, curve_from_f, zeta_oracle
from hypercount.decomp import (decomposition_check, elliptic_quotient,
                               quotients_family, quotients_normalized,
                               split_quotients, splitting_field_degree,
                               twist_curves)
from hypercount.errors import (BadGenus, CharacteristicDividesGenus,
                               EvenGenus, SingularCurve)
from hypercount.fields import make_extension, make_prime_field


def test_quotient_genera_add_up():
    F = make_prime_field(13)
    for g in range(2, 8):
        for c in (1, 3, 5):
            try:
                pair = quotients_normalized(F, g, c)
            except SingularCurve:
                continue
            assert {pair.X1.g, pair.X2.g} == {g // 2, (g + 1) // 2}
            assert pair.X1.g + pair.X2.g == g
            assert pair.defined_over is F and not pair.extended


def test_quotients_normalized_shapes():
    F = make_prime_field(13)
    pair = quotients_normalized(F, 3, 3)
    base = polys.add(F, polys.dickson(F, 3, F.one), [F.from_int(3)])
    assert pair.X1.f == base
    assert pair.X2.f == polys.mul(F, [F.from_int(-4), F.zero, F.one], base)
    with pytest.raises(BadGenus):
        quotients_normalized(F, 1, 2)
    with pytest.raises(CharacteristicDividesGenus):
        quotients_normalized(make_prime_field(5), 5, 2)
    # c = 2 makes D_3 + c = (x - 1)^2 (x + 2)
    with pytest.raises(SingularCurve):
        quotients_normalized(F, 3, 2)


def test_quotients_family_alpha_one_is_normal_form():
    F = make_prime_field(11)
    for g in (2, 3, 4, 5):
        pn = quotients_normalized(F, g, 4)
        pf = quotients_family(F, g, 4, 1)
        assert pf.X1.f == pn.X1.f and pf.X2.f == pn.X2.f


def test_quotients_family_even_genus_extension():
    F = make_prime_field(11)
    sq = next(v for v in range(2, 11) if F.legendre(v) == 1)
    ns = next(v for v in range(2, 11) if F.legendre(v) == -1)
    pair = quotients_family(F, 2, 1, sq)
    assert not pair.extended and pair.defined_over is F
    pair = quotients_family(F, 2, 1, ns)
    assert pair.extended and pair.defined_over.q == 121


def test_twist_curves_both_square_classes():
    F = make_prime_field(13)
    pair = twist_curves(F, 2, 1, 4)  # 4 = 2^2
    assert not pair.extended
    want = quotients_normalized(
        F, 2, F.div(F.from_int(1), F.sqrt(F.from_int(4))))
    got = {tuple(pair.X1.f), tuple(pair.X2.f)}
    assert got == {tuple(want.X1.f), tuple(want.X2.f)}
    ns = next(v for v in range(2, 13) if F.legendre(v) == -1)
    pair = twist_curves(F, 2, 1, ns)
    assert pair.extended and pair.defined_over.q == 169


def test_even_genus_quotients_are_minus_one_twists():
    # x -> -x carries X1: y^2 = (x + 2)(D_g(x) + c) to
    # y^2 = -(x - 2)(D_g(x) + c) since D_g is even, so X2 is X1 twisted
    # by -1: L_X2(T) = L_X1(T) when -1 is a square in the field,
    # L_X1(-T) otherwise
    rng = random.Random(31)
    for p in (5, 7):  # -1 is a square mod 5, not mod 7
        F = make_prime_field(p)
        for K in (F, make_extension(F, 2)):
            for g in (2, 4, 6):
                checked = 0
                while checked < 3:
                    try:
                        pair = quotients_normalized(K, g, K.rand(rng))
                    except SingularCurve:
                        continue
                    L1 = zeta_oracle(pair.X1)
                    if K.q % 4 == 1:
                        want = L1.a
                    else:
                        want = tuple(-v if i % 2 == 0 else v
                                     for i, v in enumerate(L1.a))
                    assert zeta_oracle(pair.X2).a == want, (K.q, g)
                    checked += 1


def test_elliptic_quotient_divides_chi():
    F = make_prime_field(13)
    C = curve_from_ab(F, 3, 2, 5)
    E = elliptic_quotient(F, 3, 2, 5)
    assert E.g == 1 and E.f == [0, 5, 2, 1]
    t = 13 + 1 - zeta_oracle(E).order()
    chi_C = zeta_oracle(C).chi_coeffs()
    chi_E = [13, -t, 1]
    # exact integer division: chi_E must divide chi_C
    q, r = _int_divmod(chi_C, chi_E)
    assert r == [] and len(q) == 5
    with pytest.raises(EvenGenus):
        elliptic_quotient(F, 2, 1, 3)


def _int_divmod(f, g):
    f = list(f)
    q = [0] * (len(f) - len(g) + 1)
    while len(f) >= len(g) and any(f):
        if f[-1] % g[-1]:
            return q, f
        c = f[-1] // g[-1]
        k = len(f) - len(g)
        q[k] = c
        for i, v in enumerate(g):
            f[k + i] -= c * v
        while f and f[-1] == 0:
            f.pop()
    return q, f


def test_splitting_field_degree_values():
    F = make_prime_field(13)
    assert splitting_field_degree(F, 2, 1) == 1
    assert splitting_field_degree(F, 2, 4) == 2   # 4 needs an 8th root
    assert splitting_field_degree(F, 3, 5) == 1   # 5 is a cube mod 13
    assert splitting_field_degree(F, 3, 2) == 3


def test_split_quotients_lives_over_splitting_field():
    F = make_prime_field(13)
    C = curve_from_ab(F, 3, 1, 2)
    pair, k = split_quotients(C)
    assert k == 3 and pair.defined_over.q == 13 ** 3
    assert not pair.extended
    assert pair.X1.g + pair.X2.g == 3


def test_decomposition_check_small_configs():
    # (g, p, a, b) with small splitting degree so the counts stay cheap
    cases = ((2, 13, 1, 1), (2, 3, 1, 2), (3, 13, 1, 5),
             (3, 7, 2, 3), (4, 7, 1, 1), (2, 11, 3, 7))
    for g, p, a, b in cases:
        F = make_prime_field(p)
        C = curve_from_ab(F, g, a, b)
        rep = decomposition_check(C)
        assert rep["equal"] is True
        assert rep["splitting_degree"] == splitting_field_degree(F, g, b)
        assert len(rep["L_C"]) == 2 * g + 1


def test_decomposition_check_direct_counting():
    F = make_prime_field(3)
    C = curve_from_ab(F, 2, 1, 2)
    via_extension = decomposition_check(C)
    direct = decomposition_check(C, direct=True)
    assert via_extension["L_C"] == direct["L_C"]
    assert direct["equal"] is True
    with pytest.raises(ValueError):
        decomposition_check(curve_from_f(F, [1, 1, 0, 1, 0, 1]))
