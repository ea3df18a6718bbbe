"""Command-line front end: JSON in/out, budget guards, verification sweeps.

Subcommands: count, zeta-oracle, cm-matrix, chi-mod-p, verify-table,
verify-congruences, decompose.  Exit codes: 0 success, 1 bad input,
2 budget exceeded, 3 ambiguous result, 4 verification counterexample,
5 internal error (a bug, or the machine ran out of a resource).

Integers that can outgrow 64 bits (field sizes, chi coefficients,
orders, matrix entries) travel as decimal strings; inputs accept 0x
hex.  The same invocation with the same seed prints byte-identical
JSON: every random draw is derived from the seed and report rows are
sorted by (g, p, a, b).
"""

import argparse
import functools
import json
import os
import random
import sys
import traceback

from . import cartier
from .config import BUDGET_ENV, DEFAULT_BUDGET, DEFAULT_SEED, DEFAULT_TRIALS
from .counting import (TRACE_METHODS, count, legendre_octic_congruence,
                       legendre_trace_congruence)
from .curves import curve_from_ab, curve_from_f, zeta_oracle
from .decomp import splitting_field_degree, twist_curves
from .descent import extend_lpoly
from .errors import (AmbiguousResult, BudgetExceeded, HypercountError,
                     InternalError, MismatchDetected, SingularSpecialization)
from .fields import is_prime, make_prime_field

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BUDGET = 2
EXIT_AMBIGUOUS = 3
EXIT_COUNTEREXAMPLE = 4
EXIT_INTERNAL = 5

# --which accepts either the behavioral name or the shorthand users of
# the verification reports tend to reach for.
_WHICH = {"traces": "traces", "thm3": "traces",
          "octic": "octic", "sec5": "octic",
          "matrix": "matrix", "thm4": "matrix",
          "extension": "extension", "eq4": "extension"}


def _int(text):
    """Integer argument: decimal, or hex with 0x prefix, sign allowed."""
    return int(str(text), 0)


def _ds(v):
    return str(int(v))


def _primes(lo, hi):
    """Odd primes in [lo, hi]."""
    out = []
    p = max(3, lo) | 1
    while p <= hi:
        if is_prime(p):
            out.append(p)
        p += 2
    return out


def _rand_ab(rng, p):
    """Nonsingular family parameters: b != 0 and a^2 != 4b."""
    while True:
        a, b = rng.randrange(p), rng.randrange(1, p)
        if (a * a - 4 * b) % p:
            return a, b


def _digits(desc, rep):
    return [_ds(d) for d in desc.digits(rep)]


def _budget(args):
    """The enumeration budget: --budget, else the env var, else the
    default.  Resolved and checked on every call, whether or not the
    subcommand enumerates; a refusal names where the value came from."""
    flag = getattr(args, "budget", None)
    if flag is None:
        source, raw = BUDGET_ENV, os.environ.get(BUDGET_ENV)
    else:
        source, raw = "--budget", str(flag)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        val = int(raw, 0)
    except ValueError:
        raise ValueError(f"{source} must be an integer, got {raw!r}")
    if val <= 0:
        raise ValueError(f"{source} must be positive, got {val}")
    return val


def _check_counts(args):
    """Repetition counts below 1 would run nothing and report success."""
    for key in ("trials", "trials_per_row", "count"):
        val = getattr(args, key, None)
        if val is not None and val < 1:
            flag = key.replace("_", "-")
            raise ValueError(f"--{flag} must be >= 1, got {val}")


def _load_curve_json(args):
    """Fill missing curve flags from --curve-json; explicit flags win."""
    if not getattr(args, "curve_json", None):
        return
    with open(args.curve_json) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("--curve-json must hold a JSON object")
    for key in ("p", "genus", "a", "b"):
        if getattr(args, key, None) is None and key in data:
            setattr(args, key, _int(data[key]))
    if getattr(args, "f", None) is None and "f" in data:
        if not isinstance(data["f"], list):
            raise ValueError('"f" in --curve-json must be a list')
        args.f = ",".join(str(v) for v in data["f"])


def _family_curve(args):
    for key in ("p", "genus", "a", "b"):
        if getattr(args, key, None) is None:
            raise ValueError(f"--{key} is required")
    F = make_prime_field(args.p)
    return curve_from_ab(F, args.genus, F.coerce(args.a), F.coerce(args.b))


# --- count ---

def cmd_count(args):
    _load_curve_json(args)
    C = _family_curve(args)
    res = count(C, trace_method=args.trace_method, budget=args.budget,
                trials=args.trials, seed=args.seed)
    out = {"q": _ds(C.F.q), "genus": res.g, "status": res.status,
           "chi": None, "jacobian_order": None,
           "candidates": [[_ds(c) for c in t] for t in res.tuples],
           "transcript": res.transcript}
    if res.status == "unique":
        out["chi"] = [_ds(c) for c in res.lpoly().chi_coeffs()]
        out["jacobian_order"] = _ds(res.order())
        return EXIT_OK, out
    return EXIT_AMBIGUOUS, out


# --- zeta-oracle ---

def cmd_zeta_oracle(args):
    _load_curve_json(args)
    if args.p is None:
        raise ValueError("--p is required")
    F = make_prime_field(args.p)
    if args.f is not None:
        coeffs = [F.coerce(_int(t)) for t in args.f.split(",")]
        C = curve_from_f(F, coeffs)
        if args.genus is not None and C.g != args.genus:
            raise ValueError(
                f"--f has genus {C.g}, --genus says {args.genus}")
    else:
        C = _family_curve(args)
    L = zeta_oracle(C, args.budget, args.seed)
    out = {"q": _ds(F.q), "genus": C.g,
           "a": [_ds(v) for v in L.a],
           "lpoly": [_ds(v) for v in L.coeffs()],
           "chi": [_ds(v) for v in L.chi_coeffs()],
           "jacobian_order": _ds(L.order()),
           "shift": args.shift}
    return EXIT_OK, out


# --- cm-matrix ---

def _matrix_rows(W):
    return [[_ds(e) for e in row] for row in W.entries]


def cmd_cm_matrix(args):
    _load_curve_json(args)
    C = _family_curve(args)
    out = {"p": _ds(C.F.p), "genus": C.g, "a": _ds(args.a % C.F.p),
           "b": _ds(args.b % C.F.p), "method": args.method}
    code = EXIT_OK
    if args.method in ("naive", "both"):
        out["naive"] = _matrix_rows(cartier.cm_matrix_naive(C))
    if args.method in ("formula", "both"):
        out["formula"] = _matrix_rows(cartier.cm_matrix_formula(C))
    if args.method == "both":
        out["equal"] = out["naive"] == out["formula"]
        if not out["equal"]:
            code = EXIT_COUNTEREXAMPLE
    key = "naive" if args.method == "naive" else "formula"
    out["matrix"] = out.get(key, out.get("naive"))
    return code, out


# --- chi-mod-p ---

def cmd_chi_mod_p(args):
    _load_curve_json(args)
    C = _family_curve(args)
    out = {"p": _ds(C.F.p), "genus": C.g, "a": _ds(args.a % C.F.p),
           "b": _ds(args.b % C.F.p), "method": args.method}
    code = EXIT_OK
    if args.method in ("matrix", "both"):
        out["matrix_coeffs"] = [_ds(c) for c in cartier.chi_mod_p(C).coeffs]
    if args.method in ("table", "both"):
        t = cartier.chi_mod_p_table(C, seed=args.seed)
        out["table_coeffs"] = [_ds(c) for c in t.coeffs]
        out["factors"] = [{"degree": d,
                           "constant": _digits(t.factor_field, c)}
                          for d, c in t.factors]
    if args.method == "both":
        out["equal"] = out["matrix_coeffs"] == out["table_coeffs"]
        if not out["equal"]:
            code = EXIT_COUNTEREXAMPLE
    out["coeffs"] = out.get("matrix_coeffs", out.get("table_coeffs"))
    return code, out


# --- verify-table ---

def _table_rows_for(g, p, trials, seed):
    F = make_prime_field(p)
    rows = []
    for t in range(trials):
        rng = random.Random(repr((seed, "verify-table", g, p, t)))
        a, b = _rand_ab(rng, p)
        C = curve_from_ab(F, g, a, b)
        lhs = cartier.chi_mod_p_table(C, seed=seed)
        rhs = cartier.chi_mod_p(C)
        rows.append({"g": g, "p": p, "a": a, "b": b,
                     "row": p % cartier._ROW_MOD[g],
                     "match": lhs.coeffs == rhs.coeffs})
    return rows


def cmd_verify_table(args):
    genera = list(range(2, 8)) if args.genus == "all" else [_int(args.genus)]
    for g in genera:
        if not 2 <= g <= 7:
            raise ValueError(f"genus {g} outside 2..7")
    rows = []
    for g in genera:
        for p in _primes(3, args.p_max):
            if g % p == 0:
                continue
            rows.extend(_table_rows_for(g, p, args.trials_per_row, args.seed))
    rows.sort(key=lambda r: (r["g"], r["p"], r["a"], r["b"]))
    warnings = []
    for g in genera:
        covered = {r["row"] for r in rows if r["g"] == g}
        for want in sorted(cartier._TABLE[g]):
            if want not in covered:
                warnings.append(
                    f"RowNotCovered: genus {g} row {want} "
                    f"(mod {cartier._ROW_MOD[g]}) has no prime <= {args.p_max}")
    mismatches = [r for r in rows if not r["match"]]
    out = {"p_max": args.p_max, "trials_per_row": args.trials_per_row,
           "seed": args.seed, "rows": rows,
           "mismatches": len(mismatches), "warnings": warnings,
           "ok": not mismatches}
    return (EXIT_COUNTEREXAMPLE if mismatches else EXIT_OK), out


# --- verify-congruences ---

def _verify_traces(args):
    failures, skipped, checked = [], 0, 0
    for p in _primes(5, args.p_max):
        for variant in (2, 3, 4, 6):
            if variant == 6 and p <= 5:
                continue
            for c in range(p):
                got = legendre_trace_congruence(p, c, variant, args.budget)
                if got == "skipped":
                    skipped += 1
                    continue
                checked += 1
                if got is not True:
                    failures.append({"p": p, "c": c, "variant": variant})
    return {"which": "traces", "p_max": args.p_max, "checked": checked,
            "skipped": skipped, "failures": failures}


def _verify_octic(args):
    ps = [args.p] if args.p else [p for p in _primes(17, args.p_max)
                                  if p % 8 == 1]
    if not ps:
        raise ValueError(f"no prime = 1 mod 8 at or below {args.p_max}")
    entries, failures, skipped = [], [], 0
    for p in ps:
        rng = random.Random(repr((args.seed, "octic", p)))
        seen = set()
        while len(seen) < min(args.count, p - 2):
            seen.add(rng.randrange(p))
        for rho in sorted(seen):
            try:
                rep = legendre_octic_congruence(p, rho, args.budget)
            except SingularSpecialization:
                skipped += 1
                continue
            entry = {"p": p, "rho": rho, "sign": rep["sign"],
                     "holds": rep["holds"]}
            entries.append(entry)
            if not rep["holds"]:
                failures.append(entry)
    return {"which": "octic", "primes": ps, "count": args.count,
            "entries": entries, "skipped": skipped, "failures": failures}


def _matrix_rows_for(g, p, count, seed):
    F = make_prime_field(p)
    rows = []
    for t in range(count):
        rng = random.Random(repr((seed, "verify-matrix", g, p, t)))
        # alternate the quadratic class of b so both square-root
        # branches of the formula get exercised
        want = 1 if t % 2 == 0 else -1
        for _ in range(64 * p):
            a, b = _rand_ab(rng, p)
            if F.legendre(F.coerce(b)) == want:
                break
        C = curve_from_ab(F, g, a, b)
        Wn = cartier.cm_matrix_naive(C)
        Wf = cartier.cm_matrix_formula(C)
        rows.append({"g": g, "p": p, "a": a, "b": b,
                     "sqrt_class": want, "match": Wn == Wf})
    return rows


def _verify_matrix(args):
    rows = []
    for g in range(2, args.genus_max + 1):
        for p in _primes(3, args.p_max):
            if g % p == 0:
                continue
            rows.extend(_matrix_rows_for(g, p, args.count, args.seed))
    rows.sort(key=lambda r: (r["g"], r["p"], r["a"], r["b"]))
    failures = [r for r in rows if not r["match"]]
    return {"which": "matrix", "p_max": args.p_max,
            "genus_max": args.genus_max, "count": args.count,
            "rows": rows, "failures": failures}


def _verify_extension(args):
    rows, skipped = [], []
    for g in (2, 3):
        if g > args.genus_max:
            continue
        for k in (2, 3):
            for p in _primes(3, min(args.p_max, 13)):
                if g % p == 0:
                    continue
                if p ** (g * k) > args.budget:
                    skipped.append({"g": g, "p": p, "k": k,
                                    "reason": "budget"})
                    continue
                F = make_prime_field(p)
                rng = random.Random(repr((args.seed, "verify-ext", g, p, k)))
                a, b = _rand_ab(rng, p)
                C = curve_from_ab(F, g, a, b)
                L = zeta_oracle(C, args.budget, args.seed)
                direct = zeta_oracle(C.base_extend(k, seed=args.seed),
                                     args.budget, args.seed)
                rows.append({"g": g, "p": p, "k": k, "a": a, "b": b,
                             "match": extend_lpoly(L, k).a == direct.a})
    failures = [r for r in rows if not r["match"]]
    return {"which": "extension", "p_max": args.p_max, "rows": rows,
            "skipped": skipped, "failures": failures}


def cmd_verify_congruences(args):
    which = _WHICH.get(args.which)
    if which is None:
        raise ValueError(f"unknown --which {args.which!r}")
    handler = {"traces": _verify_traces, "octic": _verify_octic,
               "matrix": _verify_matrix, "extension": _verify_extension}
    out = handler[which](args)
    out["ok"] = not out["failures"]
    return (EXIT_OK if out["ok"] else EXIT_COUNTEREXAMPLE), out


# --- decompose ---

def cmd_decompose(args):
    _load_curve_json(args)
    C = _family_curve(args)
    F = C.F
    j = splitting_field_degree(F, C.g, C.b)
    pair = twist_curves(F, C.g, C.a, C.b)
    K = pair.X1.F

    def curve_json(X):
        return {"genus": X.g, "f": [_digits(K, v) for v in X.f]}

    out = {"p": _ds(F.p), "genus": C.g, "a": _ds(args.a % F.p),
           "b": _ds(args.b % F.p), "splitting_degree": j,
           "defined_over": _ds(K.q), "extended": pair.extended,
           "X1": curve_json(pair.X1), "X2": curve_json(pair.X2)}
    return EXIT_OK, out


# --- plumbing ---

def _emit(payload, args):
    text = json.dumps(payload, indent=2)
    if getattr(args, "output", "json") == "text":
        lines = []
        for key, val in payload.items():
            if isinstance(val, (list, dict)):
                val = json.dumps(val)
            lines.append(f"{key}: {val}")
        text = "\n".join(lines)
    print(text)
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(json.dumps(payload, indent=2) + "\n")


def _add_common(sub, with_budget=False):
    sub.add_argument("--seed", type=_int, default=DEFAULT_SEED)
    if with_budget:
        sub.add_argument("--budget", type=_int, default=None,
                         help="max enumerable field size (overrides "
                              f"{BUDGET_ENV})")
    sub.add_argument("--output", choices=("json", "text"), default="json")
    sub.add_argument("--out", default=None, help="also write JSON here")


def _add_curve_flags(sub, with_f=False):
    sub.add_argument("--p", type=_int, default=None)
    sub.add_argument("--genus", type=_int, default=None)
    sub.add_argument("--a", type=_int, default=None)
    sub.add_argument("--b", type=_int, default=None)
    sub.add_argument("--curve-json", default=None,
                     help="JSON file with p/genus/a/b (flags win)")
    if with_f:
        sub.add_argument("--f", default=None,
                         help="comma-separated ascending coefficients of f")
        sub.add_argument("--shift", default=None,
                         help="free-form provenance note echoed in output")


def build_parser():
    ap = argparse.ArgumentParser(
        prog="hypercount", allow_abbrev=False,
        description="Frobenius characteristic polynomials for the curve "
                    "family y^2 = x^(2g+1) + a x^(g+1) + b x")
    # no abbreviated flags: --trials must not pass for --trials-per-row
    subs = ap.add_subparsers(dest="command", required=True,
                             parser_class=functools.partial(
                                 argparse.ArgumentParser, allow_abbrev=False))

    s = subs.add_parser("count", help="chi and Jacobian order")
    _add_curve_flags(s)
    s.add_argument("--trace-method", choices=TRACE_METHODS,
                   default="naive_count")
    s.add_argument("--trials", type=_int, default=DEFAULT_TRIALS,
                   help="random divisors per Jacobian order check")
    _add_common(s, with_budget=True)
    s.set_defaults(handler="cmd_count")

    s = subs.add_parser("zeta-oracle", help="brute-force L-polynomial")
    _add_curve_flags(s, with_f=True)
    _add_common(s, with_budget=True)
    s.set_defaults(handler="cmd_zeta_oracle")

    s = subs.add_parser("cm-matrix", help="Cartier-Manin matrix")
    _add_curve_flags(s)
    s.add_argument("--method", choices=("naive", "formula", "both"),
                   default="both")
    _add_common(s)
    s.set_defaults(handler="cmd_cm_matrix")

    s = subs.add_parser("chi-mod-p", help="chi mod p, matrix and table routes")
    _add_curve_flags(s)
    s.add_argument("--method", choices=("matrix", "table", "both"),
                   default="both")
    _add_common(s)
    s.set_defaults(handler="cmd_chi_mod_p")

    s = subs.add_parser("verify-table",
                        help="factored table vs matrix charpoly sweep")
    s.add_argument("--genus", default="all", help="2..7 or 'all'")
    s.add_argument("--p-max", type=_int, default=60)
    s.add_argument("--trials-per-row", type=_int, default=5)
    _add_common(s)
    s.set_defaults(handler="cmd_verify_table")

    s = subs.add_parser("verify-congruences",
                        help="congruence and identity sweeps")
    s.add_argument("--which", required=True,
                   help="traces|octic|matrix|extension "
                        "(aliases: thm3, sec5, thm4, eq4)")
    s.add_argument("--p", type=_int, default=None)
    s.add_argument("--p-max", type=_int, default=23)
    s.add_argument("--genus-max", type=_int, default=7)
    s.add_argument("--count", type=_int, default=20)
    _add_common(s, with_budget=True)
    s.set_defaults(handler="cmd_verify_congruences")

    s = subs.add_parser("decompose",
                        help="quotient curves and splitting field")
    _add_curve_flags(s)
    _add_common(s)
    s.set_defaults(handler="cmd_decompose")

    return ap


@functools.cache
def _parser():
    """The parser, built at the first call and reused by later ones.
    Handlers are stored by name and looked up per call, so a handler
    replaced after the build still takes effect."""
    return build_parser()


def _internal_error(e):
    """Exit 5 for a bug or an exhausted resource.  The traceback goes to
    stderr for the bug report; stdout keeps the JSON contract."""
    traceback.print_exc()
    return EXIT_INTERNAL, {"error": type(e).__name__, "detail": str(e)}


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
    except SystemExit as e:
        return EXIT_OK if e.code in (0, None) else EXIT_INPUT
    try:
        args.budget = _budget(args)
        _check_counts(args)
        code, payload = globals()[args.handler](args)
    except BudgetExceeded as e:
        code, payload = EXIT_BUDGET, {"error": "BudgetExceeded",
                                      "detail": str(e)}
    except AmbiguousResult as e:
        code = EXIT_AMBIGUOUS
        payload = {"error": "AmbiguousResult", "detail": str(e),
                   "candidates": [[_ds(c) for c in t]
                                  for t in e.candidates]}
    except MismatchDetected as e:
        code, payload = EXIT_COUNTEREXAMPLE, {"error": "MismatchDetected",
                                              "detail": str(e)}
    except InternalError as e:
        code, payload = _internal_error(e)
    except (HypercountError, ValueError, OSError,
            json.JSONDecodeError) as e:
        code, payload = EXIT_INPUT, {"error": type(e).__name__,
                                     "detail": str(e)}
    except Exception as e:  # MemoryError included
        code, payload = _internal_error(e)
    _emit(payload, args)
    return code


if __name__ == "__main__":
    sys.exit(main())
