"""Counting algorithms, elliptic trace methods, congruences."""

import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hypercount
from hypercount import counting, curves
from hypercount.counting import (SKIPPED, _chi_a_pool, _descended_t6,
                                 chi_generic, chi_genus3, frobenius_trace,
                                 legendre_octic_congruence,
                                 legendre_trace_congruence)
from hypercount.cartier import chi_mod_p
from hypercount.config import DEFAULT_BUDGET
from hypercount.curves import (LPoly, count_points, curve_from_ab,
                               curve_from_f, zeta_oracle)
from hypercount.decomp import elliptic_quotient
from hypercount.descent import CandidateSet, weil_filter
from hypercount.errors import (AmbiguousResult, BadGenus, BudgetExceeded,
                               CharacteristicDividesGenus,
                               NoCandidateSurvives, NotPrimeField,
                               SingularSpecialization)
from hypercount.fields import (embed, make_extension, make_prime_field,
                               next_prime)


def test_trace_method_validation(monkeypatch):
    E = curve_from_ab(make_prime_field(11), 1, 2, 3)
    with pytest.raises(ValueError, match="unknown trace method 'schoof'"):
        frobenius_trace(E, "schoof")

    def no_work(*args, **kwargs):
        raise AssertionError("bsgs started on a field over its cap")

    # bsgs refuses q > 10^14 from the size alone, whatever the budget
    monkeypatch.setattr(counting, "_bsgs_group_order", no_work)
    monkeypatch.setattr(counting, "count_points", no_work)
    big = curve_from_ab(make_prime_field(next_prime(10 ** 14)), 1, 2, 3)
    with pytest.raises(BudgetExceeded, match="exceeds the bsgs budget"):
        frobenius_trace(big, "bsgs", budget=10 ** 20)
    for g in range(2, 8):
        C = curve_from_ab(make_prime_field(29), g, 1, 3)
        with pytest.raises(ValueError, match="unknown trace method"):
            hypercount.count(C, trace_method="schoof")


def test_frobenius_trace_naive_vs_bsgs():
    rng = random.Random(20)
    for p in (3, 5, 7, 11, 13, 101, 1009):
        F = make_prime_field(p)
        for _ in range(3):
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p == 0:
                continue
            E = curve_from_ab(F, 1, a, b)
            t_naive = frobenius_trace(E, "naive_count")
            t_bsgs = frobenius_trace(E, "bsgs")
            assert t_naive == t_bsgs
            assert t_naive * t_naive <= 4 * p


def test_frobenius_trace_extension_field():
    F = make_prime_field(7)
    K = make_extension(F, 2)
    E = curve_from_ab(K, 1, K.from_int(2), K.from_int(3))
    assert frobenius_trace(E, "naive_count") == frobenius_trace(E, "bsgs")


def test_frobenius_trace_rejects():
    F = make_prime_field(11)
    with pytest.raises(BadGenus):
        frobenius_trace(curve_from_ab(F, 2, 3, 4))
    E = curve_from_ab(F, 1, 2, 3)
    with pytest.raises(BudgetExceeded):
        frobenius_trace(E, "naive_count", budget=5)
    # the default method counts points, so budget caps that count too
    E = curve_from_ab(make_prime_field(1009), 1, 2, 3)
    with pytest.raises(BudgetExceeded, match="naive_count budget 5"):
        frobenius_trace(E, budget=5)


def test_chi_result_plumbing():
    r = CandidateSet(13, 3, [(0, 36, -2)], ["counted"])
    assert r.status == "unique" and r.coefficients == (0, 36, -2)
    assert r.order() == r.lpoly().order()
    assert r.transcript == ["counted"]
    multi = CandidateSet(13, 3, [(0, 36, -2), (1, 2, 3)])
    assert multi.status == "ambiguous" and len(multi) == 2
    with pytest.raises(AmbiguousResult):
        multi.coefficients
    with pytest.raises(NoCandidateSurvives):
        CandidateSet(13, 3, [])


def test_chi_genus3_worked_example():
    F = make_prime_field(13)
    res = chi_genus3(curve_from_ab(F, 3, 2, 5))
    assert res.status == "unique"
    assert res.coefficients == (0, 36, -2)
    assert res.order() == 2700
    assert res.coefficients == zeta_oracle(curve_from_ab(F, 3, 2, 5)).a
    assert any("t2 = " in line for line in res.transcript)


def test_chi_genus3_matches_oracle_both_branches():
    rng = random.Random(23)
    for p in (5, 11, 17):
        F = make_prime_field(p)
        seen = set()
        while seen != {1, -1}:
            a, b = rng.randrange(p), rng.randrange(1, p)
            if (a * a - 4 * b) % p == 0 or F.legendre(b) in seen:
                continue
            want = zeta_oracle(curve_from_ab(F, 3, a, b))
            res = chi_genus3(curve_from_ab(F, 3, a, b))
            if res.status == "unique":
                assert res.coefficients == want.a
            else:
                assert want.a in res.tuples
            seen.add(F.legendre(b))
        # a = 0 with b a nonsquare takes the descended trace's own branch
        b = next(v for v in range(2, p) if F.legendre(v) == -1)
        want = zeta_oracle(curve_from_ab(F, 3, 0, b))
        for method in ("naive_count", "bsgs"):
            res = chi_genus3(curve_from_ab(F, 3, 0, b), trace_method=method)
            assert want.a in res.tuples
            if res.status == "unique":
                assert res.coefficients == want.a


def test_chi_a_pool_holds_the_oracle_chi_a():
    # chi_C = chi_E chi_A, so the oracle's a_1, a_2 and t2 give the true
    # (b1, b2) of chi_A = T^4 - b1 T^3 + b2 T^2 - p b1 T + p^2
    rng = random.Random(31)
    for p in (5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        F = make_prime_field(p)
        cases = []
        for cls in (1, -1):
            bs = [v for v in range(1, p) if F.legendre(v) == cls]
            cases.append((0, bs[0]))
            while len(cases) % 3:
                a, b = rng.randrange(1, p), rng.choice(bs)
                if (a * a - 4 * b) % p:
                    cases.append((a, b))
        for a, b in cases:
            a1, a2, _ = zeta_oracle(curve_from_ab(F, 3, a, b)).a
            t2 = -zeta_oracle(elliptic_quotient(F, 3, a, b)).a[0]
            b1 = -a1 - t2
            b2 = a2 - t2 * b1 - p
            for method in ("naive_count", "bsgs"):
                pool = _chi_a_pool(F, F.coerce(a), F.coerce(b), method, [],
                                   DEFAULT_BUDGET)
                assert (b1, b2) in pool, (p, a, b, method)
                assert 1 <= len(pool) <= 4


@pytest.mark.parametrize("p, a, b, want", [
    (5, 1, 2, (0, 6, 0)),
    (7, 0, 1, (0, 21, 0)),
    (229, 84, 1, (-66, 2139, -40876)),
    (271, 0, 185, (0, 813, 0)),
    (1051, 138, 250, None),
])
def test_former_ambiguous_inputs_count_uniquely(p, a, b, want):
    # each of these once ended with several candidates (exit 3); at
    # p = 7 and 271, b is a square and t6 = 0
    F = make_prime_field(p)
    res = chi_genus3(curve_from_ab(F, 3, a, b), trace_method="bsgs")
    assert res.status == "unique"
    if want is not None:
        assert res.coefficients == want
    C = curve_from_ab(F, 3, a, b)
    L = LPoly(p, 3, list(res.coefficients))
    s1, s2 = L.power_sums(2)
    assert count_points(C, 1) == p + 1 - s1
    assert count_points(C, 2) == p * p + 1 - s2
    p_mod = [c % p for c in L.chi_coeffs()]
    assert p_mod == chi_mod_p(C).coeffs
    if p ** 3 <= 10 ** 6:
        assert res.coefficients == zeta_oracle(C).a


def test_descended_t6_matches_count_over_quadratic_extension():
    # the trace over F_{p^2} of y^2 = x^3 - 3x + 2c, c = -a/(2 sqrt(b)),
    # counted there directly, against the trace read off a curve over F_p
    for p in (5, 7, 11, 13):
        F = make_prime_field(p)
        K = make_extension(F, 2)
        for b in range(1, p):
            if F.legendre(b) != -1:
                continue
            sb = K.sqrt(embed(b, F, K))
            for a in range(p):
                c = K.div(K.from_int(-a), K.mul(K.from_int(2), sb))
                E62 = curve_from_f(K, [K.mul(K.from_int(2), c),
                                       K.from_int(-3), K.zero, K.one])
                want = K.q + 1 - count_points(E62, 1)
                for method in ("naive_count", "bsgs"):
                    assert _descended_t6(F, a, b, method,
                                         DEFAULT_BUDGET) == want, \
                        (p, a, b, method)


@pytest.mark.parametrize("b", [4, 5])
def test_chi_genus3_at_42_bits(b):
    # the paper's scale: b = 4 is a square mod p, b = 5 is not
    p = 4398046511233
    a = 4231746819984
    F = make_prime_field(p)
    assert F.legendre(b) == (1 if b == 4 else -1)
    res = chi_genus3(curve_from_ab(F, 3, a, b), trace_method="bsgs")
    assert res.status == "unique"
    assert len(weil_filter(CandidateSet(p, 3, res.tuples))) == 1
    t2 = frobenius_trace(elliptic_quotient(F, 3, a, b), "bsgs")
    assert res.order() % (p + 1 - t2) == 0


def test_chi_generic_refuses_over_budget_before_counting(monkeypatch):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        raise AssertionError("a point count ran")

    monkeypatch.setattr(curves, "count_curve_points", spy)
    monkeypatch.delenv("HYPERCOUNT_BUDGET", raising=False)
    F = make_prime_field(13)
    with pytest.raises(BudgetExceeded,
                       match="field size 815730721 exceeds enumeration "
                             "budget 10000000"):
        chi_generic(curve_from_ab(F, 7, 12, 11))
    assert calls == []


def test_chi_genus3_with_bsgs_traces():
    F = make_prime_field(13)
    res = chi_genus3(curve_from_ab(F, 3, 2, 5), trace_method="bsgs")
    assert res.status == "unique" and res.coefficients == (0, 36, -2)


def test_chi_genus3_rejects():
    F = make_prime_field(3)
    with pytest.raises(CharacteristicDividesGenus):
        chi_genus3(curve_from_ab(F, 3, 1, 2))
    K = make_extension(make_prime_field(13), 2)
    with pytest.raises(NotPrimeField):
        chi_genus3(curve_from_ab(K, 3, K.from_int(2), K.from_int(5)))
    F = make_prime_field(13)
    with pytest.raises(ValueError, match="family shape"):
        chi_genus3(curve_from_f(F, [1, 2, 0, 0, 0, 0, 0, 1]))
    with pytest.raises(BadGenus):
        chi_genus3(curve_from_ab(F, 2, 2, 5))


@settings(max_examples=60)
@given(p=st.sampled_from((3, 5, 7, 11, 13)), g=st.integers(2, 4),
       a=st.integers(0, 12), b=st.integers(1, 12))
def test_count_matches_oracle_on_tiny_curves(p, g, a, b):
    assume(g % p and b % p and (a * a - 4 * b) % p)
    C = curve_from_ab(make_prime_field(p), g, a, b)
    truth = zeta_oracle(C).a
    res = hypercount.count(C)
    if res.status == "unique":
        assert res.tuples == [truth]
    else:
        assert truth in res.tuples


def test_library_ignores_the_budget_env_var(monkeypatch):
    # only the CLI reads HYPERCOUNT_BUDGET; the library takes an argument
    C = curve_from_ab(make_prime_field(13), 2, 1, 1)
    monkeypatch.setenv("HYPERCOUNT_BUDGET", "5")
    assert zeta_oracle(C).order() > 0
    monkeypatch.delenv("HYPERCOUNT_BUDGET")
    with pytest.raises(BudgetExceeded):
        hypercount.count(C, budget=5)


def test_count_rejects_a_curve_outside_the_family():
    with pytest.raises(ValueError, match="family shape"):
        hypercount.count(curve_from_f(make_prime_field(13), [1, 3, 0, 7, 0, 1]))
    with pytest.raises(ValueError, match="unknown trace method"):
        hypercount.count(curve_from_ab(make_prime_field(13), 2, 1, 1),
                         trace_method="schoof")


def test_chi_genus4_matches_oracle():
    # genus 4 descends through the degree-16 eliminant
    F = make_prime_field(7)
    want = zeta_oracle(curve_from_ab(F, 4, 1, 3))
    res = chi_generic(curve_from_ab(F, 4, 1, 3))
    if res.status == "unique":
        assert res.coefficients == want.a == (0, 24, 0, 240)
    else:
        assert want.a in res.tuples
    F = make_prime_field(13)
    a, b = 3, 10  # 10 = 6^2 mod 13, and b^(1/8) needs F_{13^4}
    want = zeta_oracle(curve_from_ab(F, 4, a, b))
    res = chi_generic(curve_from_ab(F, 4, a, b))
    if res.status == "unique":
        assert res.coefficients == want.a
    else:
        assert want.a in res.tuples


def test_chi_generic_matches_oracle():
    for g, p, a, b in ((2, 13, 3, 4), (5, 7, 2, 3), (7, 3, 1, 2)):
        F = make_prime_field(p)
        want = zeta_oracle(curve_from_ab(F, g, a, b))
        res = chi_generic(curve_from_ab(F, g, a, b))
        if res.status == "unique":
            assert res.coefficients == want.a
        else:
            assert want.a in res.tuples


def _spy_order_checks(monkeypatch):
    """Record (tuples in, degree of the target field over F_p) for each
    order check the driver runs, and run it."""
    calls = []
    real = counting._order_check_prune

    def spy(cands, curve, trials, seed):
        calls.append((len(cands), curve.F.k))
        return real(cands, curve, trials, seed)

    monkeypatch.setattr(counting, "_order_check_prune", spy)
    return calls


def test_lone_descent_survivor_skips_order_checks(monkeypatch):
    # K = 2: the one descent step keeps one tuple, which is the truth
    calls = _spy_order_checks(monkeypatch)
    res = chi_generic(curve_from_ab(make_prime_field(31), 4, 28, 12))
    assert calls == []
    assert res.coefficients == (0, 24, 0, 1488)
    assert res.transcript == [
        "quotients of the normal form over F_q^2: genus 2 and 2 counted",
        "splitting degree K = 2; L over F_q^2 assembled",
        "descend by 2: 1 -> 1 candidates"]


def test_descent_counts_points_on_a_union_of_two_or_more(monkeypatch):
    # K = 4: the step to F_{q^2} keeps one tuple; the step to F_q keeps
    # two, and one point count over F_q settles them before any order
    # check could run
    calls = _spy_order_checks(monkeypatch)
    res = chi_generic(curve_from_ab(make_prime_field(1097), 2, 634, 371))
    assert calls == []
    assert res.coefficients == (18, 162)
    last_descent = max(i for i, line in enumerate(res.transcript)
                       if line.startswith("descend by 2"))
    assert res.transcript.index("trace screen: 2 -> 1") < last_descent
    assert res.transcript[-1] == "descend by 2: 1 -> 1 candidates"


def test_tie_break_over_an_extension_field_skips_chi_mod_p(monkeypatch):
    # over F_{7^2} with the count over budget, chi mod p (prime fields
    # only) is passed over and the order checks drop the fake
    C = curve_from_ab(make_prime_field(7), 2, 1, 4).base_extend(2)
    true = zeta_oracle(C).a
    fake = (true[0], true[1] + 1)   # order off by one from the truth

    def over_budget(*args, **kwargs):
        raise BudgetExceeded("count refused")

    chi_calls = []

    def spy_chi(curve):
        chi_calls.append(curve)
        return chi_mod_p(curve)

    monkeypatch.setattr(counting, "count_points", over_budget)
    monkeypatch.setattr(counting, "chi_mod_p", spy_chi)
    transcript = []
    cs = counting._break_tie(CandidateSet(49, 2, [true, fake]), C,
                             transcript, 6, 42, DEFAULT_BUDGET)
    assert cs.tuples == [true]
    assert chi_calls == []
    assert transcript == ["extension order checks: 2 -> 1"]


def test_chi_generic_rejects():
    F = make_prime_field(11)
    with pytest.raises(ValueError):
        chi_generic(curve_from_f(F, [1, 3, 0, 7, 0, 1]))
    with pytest.raises(BadGenus):
        chi_generic(curve_from_ab(F, 1, 2, 3))


def test_trace_congruence_all_specializations():
    for p in (11, 13):
        for variant in (2, 3, 4, 6):
            skipped = 0
            for c in range(p):
                out = legendre_trace_congruence(p, c, variant)
                if out == SKIPPED:
                    skipped += 1
                    assert c in (1, p - 1)
                else:
                    assert out is True
            assert skipped == 2


def test_trace_congruence_rejects():
    with pytest.raises(ValueError):
        legendre_trace_congruence(11, 3, 5)
    with pytest.raises(ValueError):
        legendre_trace_congruence(3, 2, 2)
    with pytest.raises(ValueError):
        legendre_trace_congruence(5, 2, 6)


def test_octic_congruence_holds():
    for p in (17, 41):
        signs = set()
        for rho in range(2, p - 1):
            rep = legendre_octic_congruence(p, rho)
            assert rep["holds"] is True
            signs.add(rep["sign"])
        assert signs <= {-1, 0, 1}
    with pytest.raises(ValueError):
        legendre_octic_congruence(11, 3)
    with pytest.raises(SingularSpecialization):
        legendre_octic_congruence(17, 1)
    with pytest.raises(SingularSpecialization):
        legendre_octic_congruence(17, 16)
