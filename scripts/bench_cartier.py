"""µs per Legendre step and ms per naive Cartier-Manin expansion at genus 7.

    python3 scripts/bench_cartier.py --label after
    python3 scripts/bench_cartier.py --src OTHER_CHECKOUT/src --label before

Two fixed curves y^2 = x^15 + a x^8 + b x over F_p, p = 20011, one with b
a square and one with b a nonsquare mod p.  For each curve:

- Legendre: the evaluations that cartier.chi_mod_p_table makes, one per
  distinct index n of the genus-7 table row of p.  Where
  polys.legendre_eval takes the homogeneous form, they are
  H_n(-a/2, b) over F_p; otherwise P_n(-a/(2 sqrt b)) over the field
  holding sqrt(b).  The median wall time of all of them, divided by the
  sum of their indices, is recorded as µs per step.
- Expansion: cartier.cm_matrix_naive on the curve, median wall time in ms.

Each figure is the median of 5 timed runs after one untimed warm-up,
and is recorded under the label in BENCH_cartier.json (other labels in
the file are kept).  --src picks the package to measure, so two
checkouts can be compared with the same script.
"""

import argparse
import inspect
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5
P, GENUS, A = 20011, 7, 1234


def _median_s(fn):
    fn()
    walls = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        fn()
        walls.append(time.perf_counter() - t)
    return statistics.median(walls)


def _legendre_calls(F, a, b, indices):
    """A function making the table's Legendre evaluations, and its route."""
    from hypercount import cartier, polys

    if "B" in inspect.signature(polys.legendre_eval).parameters:
        x = F.mul(F.neg(a), F.from_int((F.p + 1) // 2))
        return (lambda: [polys.legendre_eval(F, n, x, b) for n in indices],
                "H_n(-a/2, b) over F_p")
    K, sb = cartier._sqrt_tower(F, b, 0)
    c = K.neg(K.div(K.from_int(a), K.add(sb, sb)))
    return (lambda: [polys.legendre_eval(K, n, c) for n in indices],
            f"P_n(-a/(2 sqrt b)) over F_{P}^{K.k}")


def measure():
    from hypercount import cartier
    from hypercount.curves import curve_from_ab
    from hypercount.fields import make_prime_field

    F = make_prime_field(P)
    indices = sorted({(u * P + v) // w for _, _, pidx
                      in cartier._TABLE[GENUS][P % cartier._ROW_MOD[GENUS]]
                      for u, v, w in pidx})
    out = {}
    for cls in (1, -1):
        b = next(b for b in range(5, P) if F.legendre(b) == cls
                 and (A * A - 4 * b) % P)
        name = f"g{GENUS} p={P} a={A} b={b} ({'square' if cls == 1 else 'nonsquare'})"
        legendre, route = _legendre_calls(F, A, b, indices)
        C = curve_from_ab(F, GENUS, A, b)
        leg_s = _median_s(legendre)
        exp_s = _median_s(lambda: cartier.cm_matrix_naive(C))
        out[name] = {
            "legendre_route": route,
            "legendre_steps": sum(indices),
            "us_per_legendre_step": round(1e6 * leg_s / sum(indices), 3),
            "ms_per_naive_expansion": round(1e3 * exp_s, 2),
        }
        print(f"{name}: {out[name]['us_per_legendre_step']} us per step, "
              f"{out[name]['ms_per_naive_expansion']} ms per expansion",
              file=sys.stderr)
    return out


def _cpu():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--src", default=str(ROOT / "src"),
                    help="directory holding the hypercount package")
    ap.add_argument("--label", required=True)
    ap.add_argument("--out", default=str(ROOT / "BENCH_cartier.json"))
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import numpy

    path = Path(args.out)
    data = json.loads(path.read_text()) if path.exists() else {}
    data[args.label] = {
        "cpu": f"{_cpu()}, {os.cpu_count()} logical cores",
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "repeats": REPEATS,
        "curves": measure(),
    }
    path.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
