"""Exit code and stdout digest of cli.main over a fixed corpus of calls.

    python3 scripts/cli_corpus.py --out after.json
    python3 scripts/cli_corpus.py --src OTHER_CHECKOUT/src --out before.json
    diff before.json after.json

The corpus is every operation of seeds 1-3 of the three benchmark
workloads (benchmark/workloads.py, at the run length BENCHMARK.json
sets), warm-ups included, then each subcommand on a small input run
plain, with --budget 5, with --budget 0, with HYPERCOUNT_BUDGET=5 and
with a malformed HYPERCOUNT_BUDGET, and last an abbreviated flag.
Every call runs in-process; for each the file records the exit code
and the sha256 of stdout, so two checkouts can be compared with the
same script.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
WORKLOADS = ("count-g3", "count-descent", "cm-sweep")
CURVE = ["--p", "13", "--genus", "3", "--a", "2", "--b", "5"]
SUBCOMMANDS = [
    ["count", *CURVE],
    ["count", *CURVE, "--trace-method", "bsgs"],
    ["count", "--p", "31", "--genus", "4", "--a", "28", "--b", "12"],
    ["zeta-oracle", *CURVE],
    ["cm-matrix", *CURVE],
    ["chi-mod-p", *CURVE],
    ["decompose", *CURVE],
    ["verify-table", "--genus", "3", "--p-max", "20",
     "--trials-per-row", "1"],
    ["verify-congruences", "--which", "traces", "--p-max", "11"],
    ["verify-congruences", "--which", "octic", "--p", "17", "--count", "3"],
    ["verify-congruences", "--which", "matrix", "--p-max", "7",
     "--genus-max", "3", "--count", "1"],
    ["verify-congruences", "--which", "extension", "--p-max", "7"],
]
# (label suffix, extra flags, HYPERCOUNT_BUDGET value or None)
BUDGET_VARIANTS = [("", [], None), (" --budget 5", ["--budget", "5"], None),
                   (" --budget 0", ["--budget", "0"], None),
                   (" [env 5]", [], "5"), (" [env junk]", [], "junk")]
ABBREVIATED = [["verify-table", "--genus", "2", "--p-max", "7",
                "--trials", "1"]]


def _calls():
    """(label, argv, HYPERCOUNT_BUDGET value or None) for every call."""
    sys.path.insert(0, str(ROOT / "benchmark"))
    import workloads

    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    out = []
    for name in WORKLOADS:
        rounds = workloads.rounds_for(name, seconds)
        for seed in SEEDS:
            ops = workloads.warmup_ops(name)
            for rnd in workloads.make_inputs(name, seed, rounds):
                ops.extend(rnd)
            for i, op in enumerate(ops):
                out.append((f"{name} seed {seed} #{i}: {' '.join(op.argv())}",
                            op.argv(), None))
    for argv in SUBCOMMANDS:
        for suffix, extra, env in BUDGET_VARIANTS:
            out.append((" ".join(argv) + suffix, argv + extra, env))
    for argv in ABBREVIATED:
        out.append((" ".join(argv), argv, None))
    return out


def _run(cli, argv, env):
    """One in-process call with HYPERCOUNT_BUDGET set to env (unset for
    None) and restored after: exit code and stdout."""
    saved = os.environ.pop("HYPERCOUNT_BUDGET", None)
    if env is not None:
        os.environ["HYPERCOUNT_BUDGET"] = env
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf), \
                contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    finally:
        os.environ.pop("HYPERCOUNT_BUDGET", None)
        if saved is not None:
            os.environ["HYPERCOUNT_BUDGET"] = saved
    return code, buf.getvalue()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the hypercount package")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    from hypercount import cli

    entries = {}
    for label, call, env in _calls():
        code, text = _run(cli, call, env)
        entries[label] = {"exit": code, "stdout_sha256":
                          hashlib.sha256(text.encode()).hexdigest()}
        print(f"{code} {label}", file=sys.stderr)
    Path(args.out).write_text(json.dumps(entries, indent=1) + "\n")


if __name__ == "__main__":
    main()
