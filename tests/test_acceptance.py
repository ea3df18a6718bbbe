"""Acceptance gate: ten exact end-to-end criteria, one test each.

Every criterion checks an algorithm against an independent route at
the stated sizes (brute-force zeta counts, naive matrix expansion,
direct extension-field enumeration), and every comparison is exact:
integer tuples, field elements, divisor equality, never floats.  Each
test prints a single "AC-n PASS" line with the work performed and the
elapsed time; run pytest with -s to see them (with -v the per-test
status doubles as the per-criterion line).
"""

import random
import time

from hypercount import cartier, polys
from hypercount.counting import (chi_generic, chi_genus3,
                                 legendre_octic_congruence,
                                 legendre_trace_congruence)
from hypercount.curves import (curve_from_ab, curve_from_f, jac_add,
                               jacobian_order_check, random_divisor,
                               zeta_oracle)
from hypercount.decomp import decomposition_check
from hypercount.descent import a1_elimination_coeffs, extend_lpoly
from hypercount.fields import is_prime, make_prime_field

SEED = 42


def _primes(lo, hi):
    return [n for n in range(lo | 1, hi + 1, 2) if is_prime(n)]


def _rand_ab(rng, p, want=None):
    """Nonsingular (a, b): b != 0 and a^2 != 4b.  want, if given, pins
    the quadratic class of b so both square-root branches get hit."""
    F = make_prime_field(p)
    while True:
        a, b = rng.randrange(p), rng.randrange(1, p)
        if (a * a - 4 * b) % p == 0:
            continue
        if want is None or F.legendre(F.coerce(b)) == want:
            return a, b


def _report(n, t0, detail):
    print(f"AC-{n} PASS [exact] ({time.time() - t0:.1f}s): {detail}")


def test_ac_01_factored_table_matches_matrix_charpoly():
    # every residue-class row of the factored chi-mod-p table, 3 primes
    # per row below 200, 5 seeded curves each, against the charpoly of
    # the naively expanded matrix
    t0 = time.time()
    rows = checked = 0
    for g in range(2, 8):
        mod = cartier._ROW_MOD[g]
        for row in sorted(cartier._TABLE[g]):
            ps = [p for p in _primes(3, 199)
                  if p % mod == row and g % p][:3]
            assert len(ps) == 3
            rows += 1
            for p in ps:
                F = make_prime_field(p)
                rng = random.Random(repr((SEED, "ac1", g, p)))
                for _ in range(5):
                    a, b = _rand_ab(rng, p)
                    C = curve_from_ab(F, g, a, b)
                    lhs = cartier.chi_mod_p_table(C)
                    rhs = cartier.chi_mod_p(C)
                    assert lhs.coeffs == rhs.coeffs
                    checked += 1
    _report(1, t0, f"{checked} curves across {rows} residue rows, "
                   f"genus 2..7")


def test_ac_02_matrix_formula_matches_naive_expansion():
    # closed-form matrix entries vs coefficient extraction from
    # f^((p-1)/2), all primes below 100, both quadratic classes of b
    t0 = time.time()
    checked = 0
    for g in range(2, 8):
        for p in _primes(3, 99):
            if g % p == 0:
                continue
            F = make_prime_field(p)
            rng = random.Random(repr((SEED, "ac2", g, p)))
            seen = set()
            for t in range(20):
                want = 1 if t % 2 == 0 else -1
                a, b = _rand_ab(rng, p, want)
                seen.add(want)
                C = curve_from_ab(F, g, a, b)
                assert cartier.cm_matrix_formula(C) == \
                    cartier.cm_matrix_naive(C)
                checked += 1
            assert seen == {1, -1}
    _report(2, t0, f"{checked} matrices, genus 2..7, p < 100, "
                   f"both sqrt(b) classes")


def test_ac_03_lpoly_extension_matches_direct_count():
    # coefficient transport to F_{p^k} vs enumerating the extension
    # curve outright; the largest direct count runs over 13^6 elements
    t0 = time.time()
    cases = [(2, 5, 2), (2, 7, 2), (2, 11, 2), (2, 13, 2), (2, 7, 3),
             (2, 11, 3), (3, 7, 2), (3, 11, 2), (3, 13, 2), (3, 5, 3)]
    for g, p, k in cases:
        rng = random.Random(repr((SEED, "ac3", g, p, k)))
        a, b = _rand_ab(rng, p)
        C = curve_from_ab(make_prime_field(p), g, a, b)
        L = zeta_oracle(C)
        direct = zeta_oracle(C.base_extend(k))
        assert extend_lpoly(L, k).a == direct.a
    _report(3, t0, f"{len(cases)} curves, genus 2 and 3, k in {{2, 3}}, "
                   f"p <= 13")


def test_ac_04_genus3_count_matches_oracle():
    t0 = time.time()
    ps = (5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 43)
    unique = ambiguous = 0
    for p in ps:
        F = make_prime_field(p)
        rng = random.Random(repr((SEED, "ac4", p)))
        for t in range(5):
            want = 1 if t % 2 == 0 else -1
            a, b = _rand_ab(rng, p, want)
            res = chi_genus3(curve_from_ab(F, 3, a, b))
            truth = zeta_oracle(curve_from_ab(F, 3, a, b)).a
            if res.status == "unique":
                assert tuple(res.tuples) == (truth,)
                unique += 1
            else:
                # an ambiguous answer must still contain the truth
                assert truth in res.tuples
                ambiguous += 1
    _report(4, t0, f"{unique} unique + {ambiguous} ambiguous over "
                   f"{len(ps)} primes, both sqrt(b) branches")


def test_ac_05_genus4_count_matches_oracle():
    # besides the oracle comparison, the true a1 must be an integer
    # root of the degree-16 elimination polynomial assembled from the
    # quadratic-extension coefficients
    t0 = time.time()
    ps = (7, 11, 13, 17, 23, 31)
    unique = ambiguous = 0
    for p in ps:
        F = make_prime_field(p)
        rng = random.Random(repr((SEED, "ac5", p)))
        for _ in range(3):
            a, b = _rand_ab(rng, p)
            res = chi_generic(curve_from_ab(F, 4, a, b))
            L = zeta_oracle(curve_from_ab(F, 4, a, b))
            truth = L.a
            if res.status == "unique":
                assert tuple(res.tuples) == (truth,)
                unique += 1
            else:
                assert truth in res.tuples
                ambiguous += 1
            # even-part coefficients; the a1^16 head is implicit
            elim = a1_elimination_coeffs(*extend_lpoly(L, 2).a, p)
            a1 = truth[0]
            assert a1 ** 16 + sum(
                c * a1 ** (2 * i) for i, c in enumerate(elim)) == 0
    _report(5, t0, f"{unique} unique + {ambiguous} ambiguous over "
                   f"{len(ps)} primes; a1 roots of degree-16 "
                   f"eliminant verified")


def test_ac_06_worked_example_curve():
    # y^2 = (x+2)(x^4 - 4x^2 + 5) over F_7: chi comes out exactly
    # T^4 - 4T^3 + 16T^2 - 28T + 49.  The constant-9 sibling curve
    # (x+2)(x^4 - 4x^2 + 9) has (a1, a2) = (4, 10), a different chi,
    # which is pinned here so the two inputs stay distinguishable.
    t0 = time.time()
    F = make_prime_field(7)
    lin = [F.coerce(2), F.coerce(1)]

    def quart(c):
        return [F.coerce(v) for v in (c, 0, -4, 0, 1)]

    C = curve_from_f(F, polys.mul(F, lin, quart(5)))
    L = zeta_oracle(C)
    assert tuple(L.chi_coeffs()) == (49, -28, 16, -4, 1)
    assert L.order() == 34

    sibling = curve_from_f(F, polys.mul(F, lin, quart(9)))
    assert zeta_oracle(sibling).a == (4, 10)
    _report(6, t0, "chi = T^4 - 4T^3 + 16T^2 - 28T + 49 over F_7; "
                   "constant-9 sibling pinned at (a1, a2) = (4, 10)")


def test_ac_07_trace_congruences_all_residues():
    t0 = time.time()
    ps = (11, 13, 17, 19, 23)
    checked = skipped = 0
    for p in ps:
        for variant in (2, 3, 4, 6):
            for c in range(p):
                got = legendre_trace_congruence(p, c, variant)
                if got == "skipped":
                    skipped += 1
                    continue
                assert got is True
                checked += 1
    # the singular specializations are exactly c = +-1 per (p, variant)
    assert skipped == 2 * 4 * len(ps)
    _report(7, t0, f"{checked} congruences hold, {skipped} singular "
                   f"specializations skipped, 4 variants, 5 primes")


def test_ac_08_octic_value_congruences():
    t0 = time.time()
    checked = 0
    for p in (17, 41, 73):
        rng = random.Random(repr((SEED, "ac8", p)))
        for _ in range(20):
            rho = rng.randrange(2, p - 1)
            rep = legendre_octic_congruence(p, rho)
            assert rep["holds"] is True
            assert rep["sign"] in (-1, 0, 1)
            checked += 1
    _report(8, t0, f"{checked} evaluations at p = 1 mod 8, one "
                   f"consistent sign per rho")


def test_ac_09_jacobian_splits_over_splitting_field():
    # (p, b, expected splitting degree); b is chosen so the degree
    # stays at most 2, with both degrees represented where the family
    # allows it
    t0 = time.time()
    configs = {
        2: [(3, 1, 1), (5, 1, 1), (7, 2, 1), (11, 9, 1), (13, 3, 1),
            (3, 2, 2), (5, 4, 2), (7, 5, 2), (11, 6, 2), (13, 10, 2)],
        3: [(5, 1, 1), (5, 3, 1), (7, 1, 1), (7, 6, 1), (11, 2, 1),
            (11, 7, 1), (11, 10, 1), (13, 1, 1), (13, 5, 1),
            (13, 12, 1)],
        4: [(3, 1, 1), (5, 1, 1), (7, 1, 1), (7, 2, 1), (7, 4, 1),
            (11, 3, 1), (11, 5, 1), (13, 3, 1), (13, 9, 1),
            (7, 3, 2)],
    }
    for g, rows in configs.items():
        for p, b, k in rows:
            F = make_prime_field(p)
            rng = random.Random(repr((SEED, "ac9", g, p, b)))
            while True:
                a = rng.randrange(p)
                if (a * a - 4 * b) % p:
                    break
            C = curve_from_ab(F, g, a, b)
            rep = decomposition_check(C)
            assert rep["equal"] is True
            assert rep["splitting_degree"] == k
    _report(9, t0, "L_C = L_X1 * L_X2 for 10 configurations each of "
                   "genus 2, 3, 4")


def test_ac_10_order_annihilates_and_cantor_associates():
    t0 = time.time()
    ps = _primes(3, 31)
    jobs = [(2, p) for p in ps] + [(3, p) for p in ps if p != 3]
    jobs.append((3, 13))  # 10th genus-3 curve; p = 3 divides the genus
    assert len(jobs) == 20
    triples = 0
    for i, (g, p) in enumerate(jobs):
        F = make_prime_field(p)
        rng = random.Random(repr((SEED, "ac10", g, p, i)))
        a, b = _rand_ab(rng, p)
        C = curve_from_ab(F, g, a, b)
        N = zeta_oracle(C).order()
        assert jacobian_order_check(C, N, 10, rng.randrange(2**30)) is True
        for _ in range(5):
            D1, D2, D3 = (random_divisor(C, rng.randrange(2**30))
                          for _ in range(3))
            assert jac_add(C, jac_add(C, D1, D2), D3) == \
                jac_add(C, D1, jac_add(C, D2, D3))
            triples += 1
    _report(10, t0, f"20 curves: order kills 10 divisors each; "
                    f"{triples} associativity triples")
