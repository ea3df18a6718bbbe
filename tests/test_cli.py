"""End-to-end tests for the command-line interface.

Every test drives cli.main(argv) in-process and parses the JSON it
prints.  Exit codes under test: 0 success, 1 bad input, 2 budget,
3 ambiguous, 5 internal error (through a monkeypatched handler).
Code 4 (verification counterexample) has no reachable trigger because
the identities under sweep hold; the sweeps here assert ok == True
instead.
"""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from hypercount import cli
from hypercount.config import BUDGET_ENV
from hypercount.errors import InternalError


def _run(argv, env=None):
    """Run the CLI once, returning (exit code, parsed payload, raw stdout).

    env, when given, is the HYPERCOUNT_BUDGET value the CLI reads, set
    for this invocation only.  payload is None when stdout is not JSON.
    """
    saved = os.environ.get(BUDGET_ENV)
    if env is not None:
        os.environ[BUDGET_ENV] = str(env)
    buf = io.StringIO()
    try:
        with redirect_stdout(buf):
            code = cli.main(argv)
    finally:
        if saved is None:
            os.environ.pop(BUDGET_ENV, None)
        else:
            os.environ[BUDGET_ENV] = saved
    text = buf.getvalue()
    try:
        payload = json.loads(text)
    except json.JSONDecodeError:
        payload = None
    return code, payload, text


WORKED = ["count", "--p", "13", "--genus", "3", "--a", "2", "--b", "5"]
WORKED_CHI = ["2197", "0", "468", "-2", "36", "0", "1"]


# --- count ---

def test_count_worked_example():
    code, out, _ = _run(WORKED)
    assert code == 0
    assert out["status"] == "unique"
    assert out["chi"] == WORKED_CHI
    assert out["jacobian_order"] == "2700"
    assert out["candidates"] == [["0", "36", "-2"]]
    assert out["q"] == "13"


def test_count_generic_dispatch_matches_oracle():
    # genus 2 routes through the generic algorithm; the brute-force
    # oracle subcommand is the independent reference
    code, out, _ = _run(["count", "--p", "13", "--genus", "2",
                         "--a", "3", "--b", "4"])
    assert code == 0 and out["status"] == "unique"
    code2, ref, _ = _run(["zeta-oracle", "--p", "13", "--genus", "2",
                          "--a", "3", "--b", "4"])
    assert code2 == 0
    assert out["chi"] == ref["chi"]
    assert out["jacobian_order"] == ref["jacobian_order"]


def test_count_genus4_dispatch():
    code, out, _ = _run(["count", "--p", "7", "--genus", "4",
                         "--a", "1", "--b", "3"])
    assert code == 0 and out["status"] == "unique"
    assert out["chi"] == ["2401", "0", "1176", "0", "240", "0",
                          "24", "0", "1"]
    assert out["jacobian_order"] == "3842"


def test_count_ambiguous_exits_3():
    # genus 6 over F_31 with (a, b) = (29, 7) keeps two candidates with
    # the same point count and chi mod p through every pruning stage
    # (with the default 12 trials too); the CLI must refuse to pick one
    code, out, _ = _run(["count", "--p", "31", "--genus", "6",
                         "--a", "29", "--b", "7", "--trials", "1"])
    assert code == 3
    assert out["status"] == "ambiguous"
    assert out["chi"] is None and out["jacobian_order"] is None
    assert len(out["candidates"]) == 2


def test_count_rejects_composite_p():
    code, out, _ = _run(["count", "--p", "4", "--genus", "2",
                         "--a", "1", "--b", "1"])
    assert code == 1
    assert out["error"] == "NotPrime"


def test_strong_pseudoprime_to_first_twelve_bases_is_rejected():
    # 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37
    code, out, _ = _run(["chi-mod-p", "--p", "318665857834031151167461",
                         "--genus", "2", "--a", "1", "--b", "3"])
    assert code == 1
    assert out == {"error": "NotPrime",
                   "detail": "318665857834031151167461 is not prime"}


def test_count_missing_flag():
    code, out, _ = _run(["count", "--p", "13", "--genus", "3", "--a", "2"])
    assert code == 1
    assert "--b is required" in out["detail"]


def test_argparse_failures_map_to_input_error():
    for argv in ([], ["count", "--nope"], ["no-such-command"]):
        code, out, _ = _run(argv)
        assert code == 1 and out is None
    code, _, _ = _run(["--help"])
    assert code == 0


@pytest.mark.parametrize("exc", [InternalError("inexact division"),
                                 MemoryError("numpy could not allocate")])
def test_internal_failures_exit_5(monkeypatch, capsys, exc):
    def broken(args):
        raise exc

    monkeypatch.setattr(cli, "cmd_count", broken)
    code, out, _ = _run(WORKED)
    assert code == cli.EXIT_INTERNAL == 5
    assert out == {"error": type(exc).__name__, "detail": str(exc)}
    assert "Traceback" in capsys.readouterr().err


# --- zeta-oracle ---

def test_zeta_oracle_explicit_f():
    code, out, _ = _run(["zeta-oracle", "--p", "7",
                         "--f", "0,9,0,-4,0,1", "--shift", "x -> x+1"])
    assert code == 0
    assert out["genus"] == 2
    assert out["a"] == ["0", "-2"]
    assert out["lpoly"] == ["1", "0", "-2", "0", "49"]
    assert out["chi"] == ["49", "0", "-2", "0", "1"]
    assert out["jacobian_order"] == "48"
    # --shift is an annotation only; the oracle echoes it untouched
    assert out["shift"] == "x -> x+1"


def test_zeta_oracle_genus_mismatch():
    code, out, _ = _run(["zeta-oracle", "--p", "7",
                         "--f", "0,9,0,-4,0,1", "--genus", "3"])
    assert code == 1
    assert "genus" in out["detail"]


# --- cm-matrix / chi-mod-p ---

def test_cm_matrix_both_methods_agree():
    code, out, _ = _run(["cm-matrix", "--p", "11", "--genus", "3",
                         "--a", "1", "--b", "4", "--method", "both"])
    assert code == 0
    assert out["equal"] is True
    assert out["naive"] == out["formula"] == out["matrix"]
    assert len(out["matrix"]) == 3
    assert all(len(row) == 3 for row in out["matrix"])
    assert all(isinstance(e, str) for row in out["matrix"] for e in row)


def test_chi_mod_p_both_methods_agree():
    code, out, _ = _run(["chi-mod-p", "--p", "11", "--genus", "3",
                         "--a", "1", "--b", "4", "--method", "both"])
    assert code == 0
    assert out["equal"] is True
    coeffs = out["coeffs"]
    assert coeffs == out["matrix_coeffs"] == out["table_coeffs"]
    # monic of degree 2g, divisible by T^g
    assert len(coeffs) == 7 and coeffs[-1] == "1"
    assert coeffs[:3] == ["0", "0", "0"]
    assert out["factors"]


# --- verify-table ---

def test_verify_table_small_sweep():
    code, out, _ = _run(["verify-table", "--genus", "2", "--p-max", "13",
                         "--trials-per-row", "2"])
    assert code == 0 and out["ok"] is True
    # primes {3,5,7,11,13} x 2 trials
    assert len(out["rows"]) == 10
    assert out["mismatches"] == 0 and out["warnings"] == []
    keys = [(r["g"], r["p"], r["a"], r["b"]) for r in out["rows"]]
    assert keys == sorted(keys)


def test_verify_table_warns_on_uncovered_row():
    # residue 1 mod 8 needs p >= 17, so capping at 7 leaves that genus-4
    # row unexercised; that is a warning, not a failure
    code, out, _ = _run(["verify-table", "--genus", "4", "--p-max", "7",
                         "--trials-per-row", "1"])
    assert code == 0 and out["ok"] is True
    assert out["warnings"] == [
        "RowNotCovered: genus 4 row 1 (mod 8) has no prime <= 7"]


# --- verify-congruences ---

def test_verify_traces_sweep():
    code, out, _ = _run(["verify-congruences", "--which", "traces",
                         "--p-max", "11"])
    assert code == 0 and out["ok"] is True and out["failures"] == []
    # 11 (p, variant) pairs, each skipping exactly c = 1 and c = p - 1
    assert out["skipped"] == 22
    assert out["checked"] == 65


def test_verify_octic_sweep():
    code, out, _ = _run(["verify-congruences", "--which", "octic",
                         "--p", "17", "--count", "5"])
    assert code == 0 and out["ok"] is True
    assert len(out["entries"]) == 5
    assert all(e["holds"] for e in out["entries"])
    assert all(e["sign"] in (-1, 0, 1, None) for e in out["entries"])


def test_verify_matrix_sweep():
    code, out, _ = _run(["verify-congruences", "--which", "matrix",
                         "--p-max", "7", "--genus-max", "3", "--count", "2"])
    assert code == 0 and out["ok"] is True
    # (g, p) pairs: g=2 x {3,5,7} plus g=3 x {5,7}; (3,3) is skipped
    assert len(out["rows"]) == 10
    assert {r["sqrt_class"] for r in out["rows"]} == {1, -1}


def test_verify_extension_sweep_with_budget():
    code, out, _ = _run(["verify-congruences", "--which", "extension",
                         "--p-max", "5", "--genus-max", "3",
                         "--budget", "2000"])
    assert code == 0 and out["ok"] is True
    assert [(r["g"], r["p"], r["k"]) for r in out["rows"]] == [
        (2, 3, 2), (2, 5, 2), (2, 3, 3)]
    # 5^6 and 5^9 configurations exceed the cap and are reported, not run
    assert len(out["skipped"]) == 3
    assert all(s["reason"] == "budget" for s in out["skipped"])


def test_which_aliases_match_canonical_names():
    pairs = [("thm3", "traces", ["--p-max", "7"]),
             ("sec5", "octic", ["--p", "17", "--count", "3"]),
             ("thm4", "matrix", ["--p-max", "5", "--genus-max", "2",
                                 "--count", "1"]),
             ("eq4", "extension", ["--p-max", "3", "--genus-max", "2"])]
    for alias, name, extra in pairs:
        _, _, got = _run(["verify-congruences", "--which", alias] + extra)
        _, _, want = _run(["verify-congruences", "--which", name] + extra)
        assert got == want


def test_unknown_which():
    code, out, _ = _run(["verify-congruences", "--which", "bogus"])
    assert code == 1
    assert "bogus" in out["detail"]


# --- decompose ---

def test_decompose_needs_extension():
    # b = 2 is a nonsquare mod 13: quotients live over F_169
    code, out, _ = _run(["decompose", "--p", "13", "--genus", "3",
                         "--a", "1", "--b", "2"])
    assert code == 0
    assert out["splitting_degree"] == 3
    assert out["defined_over"] == "169" and out["extended"] is True
    assert {out["X1"]["genus"], out["X2"]["genus"]} == {1, 2}


def test_decompose_rational_sqrt():
    code, out, _ = _run(["decompose", "--p", "13", "--genus", "2",
                         "--a", "1", "--b", "4"])
    assert code == 0
    assert out["splitting_degree"] == 2
    assert out["defined_over"] == "13" and out["extended"] is False


# --- budget plumbing ---

def test_budget_env_var_trips_guard():
    code, out, _ = _run(["zeta-oracle", "--p", "13", "--genus", "2",
                         "--a", "1", "--b", "1"], env=5)
    assert code == 2
    assert out["error"] == "BudgetExceeded"


def test_budget_flag_overrides_env_var():
    code, out, _ = _run(["zeta-oracle", "--p", "13", "--genus", "2",
                         "--a", "1", "--b", "1", "--budget", "100000"],
                        env=5)
    assert code == 0
    assert out["jacobian_order"] is not None


def test_budget_flag_does_not_outlive_its_call(monkeypatch, capsys):
    monkeypatch.delenv(BUDGET_ENV, raising=False)
    before = dict(os.environ)
    argv = ["zeta-oracle", "--p", "7", "--genus", "2", "--a", "1", "--b", "3"]
    assert cli.main(argv + ["--budget", "5"]) == 2
    assert cli.main(argv) == 0
    assert dict(os.environ) == before
    monkeypatch.setenv(BUDGET_ENV, "123456")
    assert cli.main(argv + ["--budget", "5"]) == 2
    assert os.environ[BUDGET_ENV] == "123456"


def test_budget_refusal_names_its_source():
    argv = ["zeta-oracle", "--p", "7", "--genus", "2", "--a", "1", "--b", "3"]
    for value in ("0", "-3"):
        code, out, _ = _run(argv + ["--budget", value], env=100)
        assert code == 1 and out["error"] == "ValueError"
        assert out["detail"] == f"--budget must be positive, got {value}"
    code, out, _ = _run(argv, env=0)
    assert code == 1
    assert out["detail"] == f"{BUDGET_ENV} must be positive, got 0"
    code, out, _ = _run(argv, env="junk")
    assert code == 1
    assert out["detail"] == f"{BUDGET_ENV} must be an integer, got 'junk'"


# --- file and format plumbing ---

def test_curve_json_input(tmp_path):
    spec = tmp_path / "curve.json"
    spec.write_text(json.dumps({"p": 13, "genus": 3, "a": 2, "b": 5}))
    _, _, want = _run(WORKED)
    code, _, got = _run(["count", "--curve-json", str(spec)])
    assert code == 0 and got == want
    # explicit flags beat the file
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps({"p": 13, "genus": 3, "a": 9, "b": 5}))
    code, _, got = _run(["count", "--curve-json", str(partial), "--a", "2"])
    assert code == 0 and got == want


def test_curve_json_of_the_wrong_shape_is_bad_input(tmp_path):
    spec = tmp_path / "curve.json"
    for argv, data in ((["count"], 5),
                       (["zeta-oracle"], {"p": 7, "f": 5})):
        spec.write_text(json.dumps(data))
        code, out, _ = _run(argv + ["--curve-json", str(spec)])
        assert code == 1 and out["error"] == "ValueError", data


def test_counts_below_one_are_bad_input():
    for argv in (["count", "--p", "7", "--genus", "2", "--a", "1", "--b", "1",
                  "--trials", "0"],
                 ["verify-table", "--trials-per-row", "-1"],
                 ["verify-congruences", "--which", "octic", "--p", "17",
                  "--count", "-1"]):
        code, out, _ = _run(argv)
        assert code == 1 and out["error"] == "ValueError", argv
        assert "must be >= 1" in out["detail"]


def test_trials_is_a_count_flag_only():
    # only count runs Jacobian order checks; elsewhere --trials is unknown
    code, out, _ = _run(["chi-mod-p", "--p", "13", "--genus", "2",
                         "--a", "1", "--b", "3", "--trials", "2"])
    assert code == 1 and out is None


def test_budget_is_a_flag_of_the_enumerating_subcommands_only():
    # chi-mod-p, cm-matrix, decompose and verify-table enumerate nothing
    code, out, _ = _run(["chi-mod-p", "--p", "13", "--genus", "2",
                         "--a", "1", "--b", "3", "--budget", "5"])
    assert code == 1 and out is None


def test_abbreviated_flags_are_refused():
    # --trials would otherwise pass for verify-table's --trials-per-row
    code, out, _ = _run(["verify-table", "--genus", "2", "--p-max", "7",
                         "--trials", "1"])
    assert code == 1 and out is None


def test_out_file_mirrors_stdout(tmp_path):
    dest = tmp_path / "result.json"
    code, out, _ = _run(WORKED + ["--out", str(dest)])
    assert code == 0
    assert json.loads(dest.read_text()) == out


def test_text_output_mode():
    code, out, text = _run(WORKED + ["--output", "text"])
    assert code == 0 and out is None
    assert "status: unique" in text
    assert "jacobian_order: 2700" in text


def test_repeat_runs_are_byte_identical():
    for argv in (WORKED,
                 ["verify-table", "--genus", "2", "--p-max", "13",
                  "--trials-per-row", "2"]):
        _, _, first = _run(argv)
        _, _, second = _run(argv)
        assert first == second
