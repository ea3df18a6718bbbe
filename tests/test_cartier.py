"""Cartier-Manin matrices, chi mod p, the factored table, cycle structure."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hypercount import polys
from hypercount.cartier import (ChiModP, CMMatrix, _pow_coeffs_prime,
                                _sqrt_tower, chi_mod_p, chi_mod_p_table,
                                cm_matrix_formula, cm_matrix_naive,
                                twist_factor, wp_product)
from hypercount.curves import curve_from_ab, curve_from_f, zeta_oracle
from hypercount.errors import (BudgetExceeded, CharacteristicDividesGenus,
                               NotPrimeField, SingularCurve, UnsupportedGenus)
from hypercount.fields import make_extension, make_prime_field, next_prime
from reference import expand_power


def _nonsingular_ab(rng, p):
    while True:
        a, b = rng.randrange(p), rng.randrange(1, p)
        if (a * a - 4 * b) % p:
            return a, b


def test_pow_coeffs_prime_matches_poly_mul():
    F = make_prime_field(101)
    f = [3, 0, 1, 2]
    for e in (1, 2, 5, 8):
        want = [F.one]
        for _ in range(e):
            want = polys.mul(F, want, f)
        assert list(_pow_coeffs_prime(F, f, e)) == want


def test_naive_matrix_entries_from_expansion():
    # entries are the c_{ip-j} of f^((p-1)/2), recomputed here directly
    F = make_prime_field(7)
    C = curve_from_ab(F, 2, 1, 3)
    fm = [F.one]
    for _ in range(3):  # (7-1)/2
        fm = polys.mul(F, fm, C.f)
    W = cm_matrix_naive(C)
    for i in (1, 2):
        for j in (1, 2):
            e = i * 7 - j
            want = fm[e] if e < len(fm) else F.zero
            assert W.entry(i, j) == want


# F_p and F_{p^2}; deg f^((p-1)/2) stays small enough to expand densely
NAIVE_FIELDS = [make_prime_field(23), make_prime_field(31),
                make_extension(make_prime_field(5), 2),
                make_extension(make_prime_field(7), 2)]


@st.composite
def packed_curves(draw):
    """A family curve with a != 0 or a = 0, or a curve outside the
    family, over a field of NAIVE_FIELDS."""
    F = draw(st.sampled_from(NAIVE_FIELDS))
    g = draw(st.integers(2, 4))
    assume(g % F.p)

    def el():
        n = draw(st.integers(0, F.q - 1))
        return F.from_digits([n // F.p ** i % F.p for i in range(F.k)])

    kind = draw(st.sampled_from(("family", "a=0", "other")))
    try:
        if kind == "other":
            C = curve_from_f(F, [el() for _ in range(2 * g + 1)] + [F.one])
        else:
            a = F.zero if kind == "a=0" else el()
            assume(a != F.zero or kind == "a=0")
            C = curve_from_ab(F, g, a, el())
    except SingularCurve:
        assume(False)
    return C


@settings(max_examples=40)
@given(packed_curves())
def test_packed_naive_matrix_matches_dense_expansion(C):
    F, p = C.F, C.F.p
    fm = expand_power(F, C.f, (p - 1) // 2)
    W = cm_matrix_naive(C)
    for i in range(1, C.g + 1):
        for j in range(1, C.g + 1):
            e = i * p - j
            assert W.entry(i, j) == (fm[e] if e < len(fm) else F.zero)
    if C.is_family:
        assert cm_matrix_formula(C) == W


def test_cm_matrix_shape_and_eq():
    F = make_prime_field(7)
    C = curve_from_ab(F, 2, 1, 3)
    W = cm_matrix_naive(C)
    assert W.g == 2
    assert W == cm_matrix_naive(C)
    with pytest.raises(ValueError):
        CMMatrix(C, [[F.one]])


def test_formula_matches_naive_sweep():
    rng = random.Random(21)
    for p in (5, 7, 11, 13):
        F = make_prime_field(p)
        for g in range(2, 8):
            if g % p == 0:
                continue
            seen_classes = set()
            for _ in range(12):
                a, b = _nonsingular_ab(rng, p)
                C = curve_from_ab(F, g, a, b)
                assert cm_matrix_formula(C) == cm_matrix_naive(C)
                seen_classes.add(F.legendre(b))
                if seen_classes == {1, -1}:
                    break
            # both square and nonsquare b must have been exercised
            assert seen_classes == {1, -1}


def test_formula_rejects_non_family():
    F = make_prime_field(11)
    C = curve_from_f(F, [1, 3, 0, 7, 0, 1])
    with pytest.raises(ValueError):
        cm_matrix_formula(C)


def test_wp_product_single_step_is_transpose():
    F = make_prime_field(11)
    C = curve_from_ab(F, 3, 2, 5)
    W = cm_matrix_naive(C)
    R = wp_product(W, 1)
    for i in range(3):
        for j in range(3):
            assert R[i][j] == W.entries[j][i]
    with pytest.raises(ValueError):
        wp_product(W, 0)


def test_chi_mod_p_matches_zeta_oracle():
    rng = random.Random(5)
    for p in (5, 7, 11, 13):
        F = make_prime_field(p)
        for g in (2, 3):
            a, b = _nonsingular_ab(rng, p)
            C = curve_from_ab(F, g, a, b)
            want = [c % p for c in zeta_oracle(C).chi_coeffs()]
            assert chi_mod_p(C).coeffs == want


def test_chi_mod_p_general_curve():
    F = make_prime_field(11)
    C = curve_from_f(F, [1, 3, 0, 7, 0, 1])
    want = [c % 11 for c in zeta_oracle(C).chi_coeffs()]
    assert chi_mod_p(C).coeffs == want


def test_chi_mod_p_over_extension_field():
    F = make_prime_field(3)
    K = make_extension(F, 2)
    C = curve_from_ab(K, 2, K.from_int(1), K.from_int(2))
    got = chi_mod_p(C)
    assert got.p == 3
    want = [c % 3 for c in zeta_oracle(C).chi_coeffs()]
    assert got.coeffs == want


def test_chi_mod_p_budget_guard():
    p = next_prime(240002)
    F = make_prime_field(p)
    C = curve_from_ab(F, 2, 1, 3)
    with pytest.raises(BudgetExceeded):
        cm_matrix_naive(C)


def test_chi_mod_p_table_matches_matrix():
    rng = random.Random(13)
    primes = {2: (5, 7, 13, 19), 3: (7, 13, 5, 11), 4: (17, 11, 13, 7),
              5: (11, 7, 13, 19), 6: (13, 5, 7, 11), 7: (29, 23, 31, 11, 5, 13)}
    for g, ps in primes.items():
        rows = set()
        for p in ps:
            F = make_prime_field(p)
            for _ in range(3):
                a, b = _nonsingular_ab(rng, p)
                C = curve_from_ab(F, g, a, b)
                assert chi_mod_p_table(C) == chi_mod_p(C)
            rows.add(p % {2: 4, 3: 3, 4: 8, 5: 5, 6: 12, 7: 7}[g])
        assert len(rows) >= 2  # several residue rows per genus


def test_table_factors_expand_to_coeffs():
    F = make_prime_field(17)
    C = curve_from_ab(F, 4, 3, 5)
    res = chi_mod_p_table(C)
    assert sum(d for d, _ in res.factors) == 4
    K = res.factor_field
    poly = [K.one]
    for d, const in res.factors:
        fac = [K.neg(const)] + [K.zero] * (d - 1) + [K.one]
        poly = polys.mul(K, poly, fac)
    # multiply the expansion back by T^g and reduce into F_p
    lifted = [0] * 4 + [int(K.digits(v)[0]) for v in poly]
    assert all(all(d == 0 for d in K.digits(v)[1:]) for v in poly)
    assert lifted == res.coeffs


def test_chi_mod_p_table_rejects():
    F = make_prime_field(11)
    with pytest.raises(UnsupportedGenus):
        chi_mod_p_table(curve_from_ab(F, 1, 1, 5))
    with pytest.raises(ValueError):
        chi_mod_p_table(curve_from_f(F, [1, 3, 0, 7, 0, 1]))
    K = make_extension(F, 2)
    CK = curve_from_ab(K, 2, K.from_int(1), K.from_int(5))
    with pytest.raises(NotPrimeField):
        chi_mod_p_table(CK)
    # p | g always fails at construction: f' = f/x there, so f is never
    # squarefree and the clearer error fires first
    with pytest.raises(CharacteristicDividesGenus):
        curve_from_ab(make_prime_field(5), 5, 1, 3)


def test_sqrt_tower_picks_the_root_of_k_sqrt():
    # the table reports factor constants in F_{p^2}, so the root must be
    # the one K.sqrt returns, not merely some square root of b
    for p in (3, 5, 13, 17, 3001, 20011):
        F = make_prime_field(p)
        for b in [b for b in range(1, min(p, 40)) if F.legendre(b) == -1]:
            K, r = _sqrt_tower(F, b, 7)
            assert K.k == 2 and r == K.sqrt(K.from_int(b))


def test_twist_factor_values():
    F = make_prime_field(13)
    sb = F.from_int(2)
    assert twist_factor(F, sb, 13, 4) == F.pow(sb, 3)
    assert twist_factor(F, sb, 13, 2) == F.pow(sb, 6)


def test_chimodp_validation():
    with pytest.raises(ValueError):
        ChiModP(7, 2, [0, 0, 1, 2, 2])  # not monic
    with pytest.raises(ValueError):
        ChiModP(7, 2, [1, 0, 1, 2, 1])  # not divisible by T^g
    with pytest.raises(ValueError):
        ChiModP(7, 2, [0, 0, 1, 1])
    c = ChiModP(7, 2, [0, 0, 3, 9, 8])  # reduced mod 7 on entry
    assert c.coeffs == [0, 0, 3, 2, 1]


def permutation_structure(g, p, n=1):
    """Cycles of i -> i p^n - (p^n - 1)/2 on residues mod g, as 1..g.

    The nonzero entries of W_p sit at (i, sigma(i)), so the cycle
    lengths are the factor degrees in the factored chi mod p.
    """
    shift = (p ** n - 1) // 2
    sigma = {i: (i * p ** n - shift - 1) % g + 1 for i in range(1, g + 1)}
    seen = set()
    cycles = []
    for start in range(1, g + 1):
        if start in seen:
            continue
        cyc = [start]
        seen.add(start)
        nxt = sigma[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = sigma[nxt]
        cycles.append(tuple(cyc))
    return cycles


def test_permutation_structure_cycles():
    assert permutation_structure(4, 17) == [(1,), (2,), (3,), (4,)]
    lens = sorted(len(c) for c in permutation_structure(4, 11))
    assert lens == [2, 2]
    # squaring the permutation trivializes it when p^2 = 1 mod 2g
    assert all(len(c) == 1 for c in permutation_structure(4, 11, n=2))


def test_cycle_lengths_match_factor_degrees():
    rng = random.Random(31)
    cases = {2: (5, 7), 3: (7, 11), 4: (7, 11, 13, 17),
             5: (7, 11, 13, 19), 6: (5, 7, 11, 13), 7: (5, 11, 13, 23)}
    for g, ps in cases.items():
        for p in ps:
            F = make_prime_field(p)
            a, b = _nonsingular_ab(rng, p)
            C = curve_from_ab(F, g, a, b)
            degs = sorted(d for d, _ in chi_mod_p_table(C).factors)
            lens = sorted(len(c) for c in permutation_structure(g, p))
            assert degs == lens
