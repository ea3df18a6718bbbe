"""Benchmark of hypercount's user-facing entry point, hypercount.cli.main.

    python3 benchmark/run.py --workload count-g3 --seed 1 --seconds 40 --trace 0

Runs one workload in this process, one curve at a time (closed loop, one
client), checks every answer with the benchmark's own arithmetic, and
prints the metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the same operations run
under tracing and the metrics are per layer.  See benchmark/README.md.
"""

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

SETUP_PROBES = 5
SETUP_PROBE_TIMEOUT = 60


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def _import_package():
    if not (SRC / "hypercount" / "__init__.py").is_file():
        sys.exit(f"run.py: no package source at {SRC / 'hypercount'}")
    sys.path.insert(0, str(SRC))
    import hypercount.cli
    return hypercount.cli


def _inputs(args):
    rounds = workloads.rounds_for(args.workload, args.seconds)
    return [op for rnd in workloads.make_inputs(args.workload, args.seed,
                                                rounds) for op in rnd]


def _setup_seconds(args):
    """Median wall time of fresh interpreters that import the package and
    build the inputs: what a run pays before its first operation."""
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_PROBE_TIMEOUT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _call(cli, op):
    """One operation: exit code, parsed JSON (or None), error text."""
    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(op.argv())
    except Exception as e:  # an escaped exception is a failed operation
        return None, None, f"{type(e).__name__}: {e}"
    try:
        return code, json.loads(buf.getvalue()), None
    except json.JSONDecodeError as e:
        return code, None, f"unparsable output: {e}"


def _timed_pass(cli, ops, tracer=None):
    """Run every op once; per op (code, out, err, wall_s, cpu_s)."""
    results = []
    gc.collect()
    for i, op in enumerate(ops):
        gc.disable()
        w0, c0 = time.perf_counter(), time.process_time()
        if tracer is None:
            res = _call(cli, op)
        else:
            res = tracer.operation(i, lambda: _call(cli, op))
        w1, c1 = time.perf_counter(), time.process_time()
        gc.enable()
        results.append((*res, w1 - w0, c1 - c0))
        gc.collect()
    return results


def _check(ops, results):
    """Per op: None when it passed, else (wrong answer?, description)."""
    import checks
    checker = checks.Checker()
    verdicts = []
    for op, (code, out, err, _, _) in zip(ops, results):
        if err is not None:
            verdicts.append((False, err))
            continue
        if code != 0:
            verdicts.append((False, f"exit {code}"))
            continue
        if op.command == "count":
            fails = checker.check_count(op.p, op.genus, op.a, op.b, out)
        else:
            fails = checker.check_chi_mod_p(op.p, op.genus, op.a, op.b, out)
        verdicts.append((True, "failed checks: " + ", ".join(fails))
                        if fails else None)
    return verdicts


def _tail(walls):
    """Highest percentile with at least 10 operations beyond it, or None
    when fewer than 40 operations ran."""
    n = len(walls)
    if n < 40:
        return None
    pct = 100 * (n - 10) // n
    return pct, sorted(walls)[(pct * n + 99) // 100 - 1]


def _report(verdicts, ops, results):
    by_stratum = {}
    for op, r in zip(ops, results):
        by_stratum.setdefault(op.stratum, []).append(r[3])
    for label, walls in by_stratum.items():
        print(f"stratum {label}: {len(walls)} ops, wall s median "
              f"{statistics.median(walls):.3f}, max {max(walls):.3f}, "
              f"sum {sum(walls):.3f}")
    for op, v in zip(ops, verdicts):
        if v is not None:
            print(f"FAILED {op.stratum} {' '.join(op.argv())}: {v[1]}")


def _traced(cli, args, ops):
    """Per-layer metrics from a traced pass, then the same ops untraced
    to measure the tracing overhead."""
    from tracing import Tracer
    tracer = Tracer()
    tracer.install()
    try:
        results = _timed_pass(cli, ops, tracer)
    finally:
        tracer.uninstall()
    plain = _timed_pass(cli, ops)
    traced_wall = sum(r[3] for r in results)
    plain_wall = sum(r[3] for r in plain)
    metrics = tracer.metrics()
    metrics["trace.overhead_pct"] = (
        100 * (traced_wall - plain_wall) / plain_wall, "%")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    spans.write_text(json.dumps({"absent": tracer.absent,
                                 "spans": tracer.span_records()}))
    if tracer.absent:
        print("absent (not traced): " + ", ".join(tracer.absent))
    print(f"spans written to {spans.relative_to(ROOT)}")
    return results, metrics


def main(argv=None):
    args = _parse(argv)
    if args.setup_probe:
        _import_package()
        _inputs(args)
        return 0
    if args.seconds < 1:
        sys.exit("run.py: --seconds must be at least 1")

    cli = _import_package()
    setup_s = None if args.trace else _setup_seconds(args)
    ops = _inputs(args)
    for op in workloads.warmup_ops(args.workload):
        _call(cli, op)

    if args.trace:
        results, metrics = _traced(cli, args, ops)
    else:
        results = _timed_pass(cli, ops)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    verdicts = _check(ops, results)
    _report(verdicts, ops, results)
    failed = sum(v is not None for v in verdicts)
    # a wrong answer counts as failed and also makes the run incorrect
    wrong = any(v is not None and v[0] for v in verdicts)

    if not args.trace:
        walls = [r[3] for r in results]
        metrics = {
            "setup_s": (setup_s, "s"),
            "curves_per_s": ((len(ops) - failed) / sum(walls), "1/s"),
            "cpu_s_per_curve": (sum(r[4] for r in results) / len(ops), "s"),
            "latency_p50_s": (statistics.median(walls), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        tail = _tail(walls)
        if tail is None:
            print(f"latency tail: not reported, {len(walls)} operations "
                  "(fewer than 40)")
        else:
            print(f"latency tail: p{tail[0]} = {tail[1]:.4f} s "
                  f"over {len(walls)} operations")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": not wrong,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
