"""Extension and descent of L-polynomials, with the genus-4 closed form."""

import random

import pytest

from hypercount import polys
from hypercount.config import DEFAULT_SEED, DEFAULT_TRIALS
from hypercount.curves import LPoly, curve_from_ab, zeta_oracle
from hypercount.counting import _order_check_prune
from hypercount.descent import (CandidateSet, _chi_from_real, _compose_int,
                                _degree_g_products, _dickson_int,
                                _real_weil_poly, a1_elimination_coeffs,
                                extend_lpoly, generic_descend, genus4_descend,
                                weil_filter)
from hypercount.errors import AmbiguousResult, NoCandidateSurvives
from hypercount.fields import make_prime_field


def _screen(found, q, g, C):
    """The counting driver's screen after a descent step: the Weil
    filter, then the order checks on the curve over F_q."""
    cs = weil_filter(CandidateSet(q, g, found))
    return _order_check_prune(cs, C, DEFAULT_TRIALS, DEFAULT_SEED)


def test_extend_lpoly_elliptic_closed_form():
    # g = 1: a1 over q^2 is 2q - a1^2
    L = LPoly(5, 1, (-2,))
    assert extend_lpoly(L, 2).a == (2 * 5 - 4,)
    assert extend_lpoly(L, 1) == L
    with pytest.raises(ValueError):
        extend_lpoly(L, 0)


def test_extend_lpoly_matches_direct_oracle():
    # the heavyweight g = 3, k = 3 combination runs in the acceptance suite
    cases = ((2, 5, 2), (2, 7, 2), (2, 5, 3), (2, 13, 2), (3, 5, 2))
    rng = random.Random(8)
    for g, p, k in cases:
        F = make_prime_field(p)
        while True:
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p:
                break
        C = curve_from_ab(F, g, a, b)
        lifted = extend_lpoly(zeta_oracle(C), k)
        assert lifted == zeta_oracle(C.base_extend(k))


def test_weil_filter_drops_violators():
    F = make_prime_field(7)
    C = curve_from_ab(F, 2, 1, 4)
    true = zeta_oracle(C).a
    cands = CandidateSet(7, 2, [true, (100, 0), (-10, -45)])
    kept = weil_filter(cands)
    assert true in kept.tuples
    assert (100, 0) not in kept.tuples       # a1 past the Weil box
    assert (-10, -45) not in kept.tuples     # L(1) <= 0
    with pytest.raises(NoCandidateSurvives):
        weil_filter(CandidateSet(7, 2, [(100, 0)]))


def test_order_check_prune_kills_off_by_one():
    F = make_prime_field(7)
    C = curve_from_ab(F, 2, 1, 4)
    true = zeta_oracle(C).a
    # order of the fake differs from the true order by exactly 1, so it
    # cannot be a multiple of the group exponent
    fake = (true[0], true[1] + 1)
    cs = _order_check_prune(CandidateSet(7, 2, [true, fake]), C, 6, 42)
    assert cs.tuples == [true]
    with pytest.raises(NoCandidateSurvives):
        _order_check_prune(CandidateSet(7, 2, [fake]), C, 6, 42)


def test_candidate_set_plumbing():
    cs = CandidateSet(49, 2, [(1, 2), (3, 4)])
    assert len(cs) == 2 and cs.status == "ambiguous"
    assert CandidateSet(49, 2, [(1, 2)]).status == "unique"
    with pytest.raises(NoCandidateSurvives):
        CandidateSet(49, 2, [])


def test_a1_elimination_polynomial_has_a1_root():
    rng = random.Random(9)
    for p in (7, 11, 13):
        F = make_prime_field(p)
        for _ in range(3):
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p == 0:
                continue
            C = curve_from_ab(F, 4, a, b)
            L = zeta_oracle(C)
            L2 = extend_lpoly(L, 2)
            cs = a1_elimination_coeffs(*L2.a, p)
            a1 = L.a[0]
            val = a1 ** 16 + sum(c * a1 ** (2 * i) for i, c in enumerate(cs))
            assert val == 0


def test_genus4_descend_roundtrip():
    rng = random.Random(10)
    for p in (7, 13):
        F = make_prime_field(p)
        done = 0
        while done < 3:
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p == 0:
                continue
            C = curve_from_ab(F, 4, a, b)
            L = zeta_oracle(C)
            found = genus4_descend(extend_lpoly(L, 2), 2)
            assert L.a in found
            for t in found:
                assert extend_lpoly(LPoly(p, 4, t), 2) == extend_lpoly(L, 2)
            cs = _screen(found, p, 4, C)
            assert L.a in cs.tuples
            if cs.status == "unique":
                assert cs.tuples == [L.a]
            done += 1


def test_genus4_descend_known_ambiguous_case():
    F = make_prime_field(11)
    C = curve_from_ab(F, 4, 1, 1)
    L = zeta_oracle(C)
    assert L.a == (0, 12, 0, 278)
    cs = _screen(genus4_descend(extend_lpoly(L, 2), 2), 11, 4, C)
    assert cs.status == "ambiguous"
    assert (0, 12, 0, 278) in cs.tuples and len(cs) == 3
    with pytest.raises(AmbiguousResult):
        cs.coefficients


def test_genus4_descend_rejects_garbage():
    F = make_prime_field(7)
    C = curve_from_ab(F, 4, 1, 3)
    L2 = extend_lpoly(zeta_oracle(C), 2)
    assert L2.a == (48, 1056, 13872, 118850)
    garbage = LPoly(49, 4, (L2.a[0], L2.a[1] + 2, L2.a[2], L2.a[3]))
    assert genus4_descend(garbage, 2) == []
    with pytest.raises(ValueError):
        genus4_descend(LPoly(7, 4, L2.a), 2)  # 7 is not a square
    with pytest.raises(ValueError):
        genus4_descend(L2, 3)  # the eliminant only halves the degree


def test_real_weil_poly_roundtrip():
    rng = random.Random(12)
    for p, g in ((7, 2), (11, 3), (7, 4)):
        F = make_prime_field(p)
        while True:
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p:
                break
        L = zeta_oracle(curve_from_ab(F, g, a, b))
        h = _real_weil_poly(L)
        assert len(h) == g + 1 and h[-1] == 1
        assert _chi_from_real(h, p) == L.chi_coeffs()


def test_dickson_int_matches_field_dickson():
    F = make_prime_field(101)
    for n in (1, 2, 3, 5, 8):
        for alpha in (2, 7):
            want = polys.dickson(F, n, F.from_int(alpha))
            got = [F.coerce(c) for c in _dickson_int(n, alpha)]
            assert got == want
    assert _compose_int([1, 0, 1], [0, 0, 1]) == [1, 0, 0, 0, 1]


def test_factor_mod_and_products():
    F = make_prime_field(103)  # -1 is a nonsquare, so x^2 + 1 stays prime
    f = polys.mul(F, [1, 0, 1], polys.mul(F, [3, 1], polys.mul(F, [3, 1],
                                                               [5, 1])))
    factors = polys.factor(F, f, seed=42)
    assert sorted((polys.degree(irr), m) for irr, m in factors) == \
        [(1, 1), (1, 2), (2, 1)]
    rebuilt = [F.one]
    for irr, m in factors:
        for _ in range(m):
            rebuilt = polys.mul(F, rebuilt, irr)
    assert rebuilt == f
    with pytest.raises(ValueError):
        polys.factor(make_prime_field(7), [1] * 8)  # degree 7 = p
    prods = _degree_g_products(F, factors, 2, 10_000)
    assert len(prods) == 3 and all(polys.degree(t) == 2 for t in prods)
    assert _degree_g_products(F, factors, 2, 1) is None


def test_generic_descend_roundtrip():
    cases = ((2, 11, 2), (2, 7, 3), (3, 5, 2), (3, 5, 3))
    rng = random.Random(14)
    for g, p, k in cases:
        F = make_prime_field(p)
        while True:
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p:
                break
        C = curve_from_ab(F, g, a, b)
        L = zeta_oracle(C)
        found = generic_descend(extend_lpoly(L, k), k)
        cs = _screen(found, p, g, C)
        assert L.a in cs.tuples
        if cs.status == "unique":
            assert cs.tuples == [L.a]


def test_generic_descend_without_curve():
    F = make_prime_field(11)
    C = curve_from_ab(F, 2, 3, 4)
    L = zeta_oracle(C)
    found = generic_descend(extend_lpoly(L, 2), 2)
    assert L.a in found  # no order checks, so possibly several
    for t in found:
        assert extend_lpoly(LPoly(11, 2, t), 2) == extend_lpoly(L, 2)


def test_generic_descend_identity_and_errors():
    L = LPoly(9, 2, (1, 2))
    assert generic_descend(L, 1) == [(1, 2)]
    with pytest.raises(ValueError):
        generic_descend(LPoly(7, 2, (1, 2)), 2)  # 7 not a square
