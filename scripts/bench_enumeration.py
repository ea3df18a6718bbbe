"""ns per element of enumeration.count_curve_points on three fixed fields.

    python3 scripts/bench_enumeration.py --label after
    python3 scripts/bench_enumeration.py --src OTHER_CHECKOUT/src --label before

Each field is counted 5 times after one untimed warm-up count, and the
median wall time divided by q is recorded under the label in
BENCH_enumeration.json (other labels in the file are kept).  The fields
and curves are fixed:

- F_{31^4}: X1, the genus-2 quotient of the normal form of
  y^2 = x^9 + 28 x^5 + 12 x over F_31 (b a nonsquare, so X1 lives over
  F_{31^2}), as zeta_oracle counts it over F_{31^4};
- F_{1097^2}: X1, the genus-1 quotient of y^2 = x^5 + 634 x^3 + 371 x
  over F_1097, counted over F_{1097^2} where it lives;
- F_p, p = 1100009: y^2 = x^3 + x^2 + 3x.

--src picks the package to measure, so two checkouts can be compared
with the same script.
"""

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REPEATS = 5


def _cases():
    from hypercount.curves import curve_from_ab
    from hypercount.decomp import quotients_normalized
    from hypercount.fields import embed, make_extension, make_prime_field

    def quotient_field(p, g, a, b, k):
        F = make_prime_field(p)
        K2 = make_extension(F, 2)
        c = K2.div(embed(a, F, K2), K2.sqrt(embed(b, F, K2)))
        X1 = quotients_normalized(K2, g, c).X1
        ext = make_extension(K2, k // 2)
        return ext, [embed(v, K2, ext) for v in X1.f]

    Fp = make_prime_field(1100009)
    return [
        ("F_31^4: X1 (genus 2) of a genus-4 curve",
         *quotient_field(31, 4, 28, 12, 4)),
        ("F_1097^2: X1 (genus 1) of a genus-2 curve",
         *quotient_field(1097, 2, 634, 371, 2)),
        ("F_1100009: y^2 = x^3 + x^2 + 3x", Fp, curve_from_ab(Fp, 1, 1, 3).f),
    ]


def measure():
    from hypercount.enumeration import count_curve_points

    out = {}
    for name, F, f in _cases():
        count = count_curve_points(F, f, F.q)
        walls = []
        for _ in range(REPEATS):
            t = time.perf_counter()
            if count_curve_points(F, f, F.q) != count:
                raise SystemExit(f"{name}: the count changed between runs")
            walls.append(time.perf_counter() - t)
        wall = statistics.median(walls)
        out[name] = {"q": F.q, "points": count, "median_s": round(wall, 4),
                     "ns_per_element": round(1e9 * wall / F.q, 1)}
        print(f"{name}: {out[name]['ns_per_element']} ns per element",
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
    ap.add_argument("--out", default=str(ROOT / "BENCH_enumeration.json"))
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
        "fields": measure(),
    }
    path.write_text(json.dumps(data, indent=2) + "\n")


if __name__ == "__main__":
    main()
