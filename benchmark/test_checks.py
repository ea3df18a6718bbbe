"""Tests of the benchmark's own checks and tracing.

    python3 -m pytest benchmark/test_checks.py -q

Every check must pass the program's true answers and reject a perturbed
one; the enumeration is compared with a plain double loop.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
from hypercount import cli  # noqa: E402


def _cli(*argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main([str(a) for a in argv])
    return code, json.loads(buf.getvalue())


def _count(p, g, a, b):
    code, out = _cli("count", "--p", p, "--genus", g, "--a", a, "--b", b)
    assert code == 0
    return out


def _perturb(out, j, delta):
    """Add delta to a_j, keeping chi's functional equation and the
    reported order consistent, so only the checks on values can object."""
    g, q = out["genus"], int(out["q"])
    chi = [int(c) for c in out["chi"]]
    chi[2 * g - j] += delta
    if j < g:
        chi[j] += q ** (g - j) * delta
    new = dict(out, chi=[str(c) for c in chi], jacobian_order=str(sum(chi)))
    return new


# --- the arithmetic under the checks ---

def _brute_count(p, f):
    sq = {x * x % p for x in range(p)}
    n = 1
    for x in range(p):
        v = sum(c * x ** e for e, c in enumerate(f)) % p
        n += 1 if v == 0 else (2 if v in sq else 0)
    return n


def _brute_count_p2(p, f, nonsq):
    """Over F_p[t]/(t^2 - nonsq), elements x0 + x1 t, by plain loops."""
    def mul(u, v):
        return ((u[0] * v[0] + nonsq * u[1] * v[1]) % p,
                (u[0] * v[1] + u[1] * v[0]) % p)
    squares = set()
    for x0 in range(p):
        for x1 in range(p):
            squares.add(mul((x0, x1), (x0, x1)))
    n = 1
    for x0 in range(p):
        for x1 in range(p):
            acc, xe = (0, 0), (1, 0)
            for c in f:
                acc = ((acc[0] + c * xe[0]) % p, (acc[1] + c * xe[1]) % p)
                xe = mul(xe, (x0, x1))
            n += 1 if acc == (0, 0) else (2 if acc in squares else 0)
    return n


@pytest.mark.parametrize("p,g,a,b", [(13, 2, 3, 5), (31, 3, 7, 2),
                                     (11, 4, 1, 6)])
def test_enumeration_over_prime_field_matches_double_loop(p, g, a, b):
    f = checks.family_f(g, a, b)
    assert checks.count_points(p, 1, f) == _brute_count(p, f)


@pytest.mark.parametrize("p,g,a,b", [(7, 2, 3, 5), (11, 3, 2, 1)])
def test_enumeration_over_quadratic_field_matches_double_loop(p, g, a, b):
    nonsq = next(c for c in range(2, p) if pow(c, (p - 1) // 2, p) != 1)
    f = checks.family_f(g, a, b)
    assert checks.count_points(p, 2, f) == _brute_count_p2(p, f, nonsq)


@pytest.mark.parametrize("p,k", [(3, 2), (5, 3), (7, 4), (2, 4)])
def test_irreducible_has_no_factor_of_low_degree(p, k):
    m = checks.irreducible(p, k)
    assert len(m) == k + 1 and m[-1] == 1
    # no root, and for k = 4 no quadratic factor: check every monic
    # divisor candidate of degree <= k // 2 by remainder
    for d in range(1, k // 2 + 1):
        for idx in range(p ** d):
            div = [(idx // p ** i) % p for i in range(d)] + [1]
            assert checks._polrem(m, div, p) != []


# --- every check passes true answers ---

@pytest.mark.parametrize("p,g,a,b", [(13, 2, 3, 5), (31, 2, 7, 2),
                                     (31, 3, 7, 2), (13, 3, 2, 5),
                                     (11, 4, 1, 6)])
def test_true_count_answers_pass(p, g, a, b):
    assert checks.Checker().check_count(p, g, a, b, _count(p, g, a, b)) == []


@pytest.mark.parametrize("p,g,a,b", [(101, 2, 3, 5), (103, 5, 7, 2),
                                     (107, 7, 4, 3)])
def test_true_chi_mod_p_answers_pass(p, g, a, b):
    code, out = _cli("chi-mod-p", "--p", p, "--genus", g, "--a", a,
                     "--b", b, "--method", "both")
    assert code == 0
    assert checks.Checker().check_chi_mod_p(p, g, a, b, out) == []


# --- every check rejects a perturbed answer ---

def test_shape_rejects_wrong_order():
    out = _count(13, 2, 3, 5)
    out["jacobian_order"] = str(int(out["jacobian_order"]) + 1)
    assert "shape" in checks.Checker().check_count(13, 2, 3, 5, out)


def test_unique_rejects_ambiguous_status():
    out = dict(_count(13, 2, 3, 5), status="ambiguous", chi=None)
    assert checks.Checker().check_count(13, 2, 3, 5, out) == ["unique"]


def test_weil_rejects_out_of_range_coefficient():
    out = _perturb(_count(13, 2, 3, 5), 1, 100)
    assert "weil" in checks.Checker().check_count(13, 2, 3, 5, out)


def test_count_over_prime_field_rejects_wrong_a1():
    out = _perturb(_count(31, 3, 7, 2), 1, 1)
    fails = checks.Checker().check_count(31, 3, 7, 2, out)
    assert "count_F_p^1" in fails and "cm_mod_p" in fails


def test_count_over_quadratic_field_rejects_a2_off_by_p():
    # a_2 + p is invisible mod p; only the count over F_{p^2} sees it
    out = _perturb(_count(31, 2, 7, 2), 2, 31)
    assert checks.Checker().check_count(31, 2, 7, 2, out) == ["count_F_p^2"]


def test_full_lpoly_rejects_middle_coefficient_off_by_p():
    # genus 4 at p = 11: q^4 is enumerable, so a_4 is pinned as well
    out = _perturb(_count(11, 4, 1, 6), 4, 11)
    assert checks.Checker().check_count(11, 4, 1, 6, out) == ["count_F_p^4"]


def test_elliptic_quotient_rejects_order_it_does_not_divide():
    out = _count(13, 3, 2, 5)
    nE = checks.count_points(13, 1, [0, 5, 2, 1])
    assert nE > 1
    out = _perturb(out, 3, 1)
    fails = checks.Checker(enum_limit=13).check_count(13, 3, 2, 5, out)
    assert "elliptic_divides" in fails


def test_cm_mod_p_rejects_wrong_residue():
    out = _perturb(_count(13, 2, 3, 5), 2, 1)
    assert "cm_mod_p" in checks.Checker(enum_limit=13).check_count(
        13, 2, 3, 5, out)


def _cm_out():
    code, out = _cli("chi-mod-p", "--p", 101, "--genus", 3, "--a", 4,
                     "--b", 7, "--method", "both")
    assert code == 0
    return out


def test_equal_rejects_false_verdict():
    out = dict(_cm_out(), equal=False)
    assert checks.Checker().check_chi_mod_p(101, 3, 4, 7, out) == ["equal"]


@pytest.mark.parametrize("key", ["matrix_coeffs", "table_coeffs"])
def test_chi_mod_p_rejects_wrong_coefficient(key):
    out = _cm_out()
    out[key] = list(out[key])
    out[key][4] = str((int(out[key][4]) + 1) % 101)
    assert checks.Checker().check_chi_mod_p(101, 3, 4, 7, out) == [key]


def test_trace_mod_p_rejects_wrong_top_coefficient():
    out = _cm_out()
    out["coeffs"] = list(out["coeffs"])
    out["coeffs"][5] = str((int(out["coeffs"][5]) + 1) % 101)
    assert checks.Checker().check_chi_mod_p(
        101, 3, 4, 7, out) == ["trace_mod_p"]


# --- tracing ---

def _traced(targets, monkeypatch):
    monkeypatch.setattr(tracing, "TARGETS", targets)
    tr = tracing.Tracer()
    tr.install()
    try:
        tr.operation(0, lambda: _cli("count", "--p", 13, "--genus", 3,
                                     "--a", 2, "--b", 5))
    finally:
        tr.uninstall()
    return tr


def test_missing_function_is_reported_absent(monkeypatch):
    targets = tracing.TARGETS + [("polys", "no_such_function", tracing.HOT),
                                 ("no_such_module", "f", tracing.SPAN)]
    tr = _traced(targets, monkeypatch)
    assert tr.absent == ["polys.no_such_function", "no_such_module.f"]
    metrics = tr.metrics()
    assert metrics["trace.absent"] == (2, "count")
    assert metrics["curves.jac_add.calls"][0] > 0


def test_wraps_are_installed_everywhere_and_removed(monkeypatch):
    from hypercount import cartier, counting
    orig = cartier.chi_mod_p
    tr = tracing.Tracer()
    tr.install()
    try:
        assert counting.chi_mod_p is cartier.chi_mod_p is not orig
    finally:
        tr.uninstall()
    assert counting.chi_mod_p is orig and cartier.chi_mod_p is orig


def test_counts_repeat_exactly(monkeypatch):
    # fill the package's field caches first, as an earlier run would
    _cli("count", "--p", 13, "--genus", 3, "--a", 2, "--b", 5)
    a = _traced(tracing.TARGETS, monkeypatch)
    b = _traced(tracing.TARGETS, monkeypatch)
    assert dict(a.calls) == dict(b.calls)
    assert dict(a.counts) == dict(b.counts)
    assert all(s[4] == 0 for s in a.spans)
    names = {s[0] for s in a.spans}
    assert {"op", "counting.chi_genus3", "counting.frobenius_trace"} <= names
