"""Seeded inputs for the benchmark workloads.

Each workload is a fixed list of strata.  A stratum fixes the genus, a
window of primes, the quadratic class of b and, for the descent
workload, the splitting degree K (the degree of b^(1/2g) over F_p, so
K > 1 means a descent runs).  The seed only picks which prime in the
window and which (a, b) in the stratum, so every seed gives the same mix
of work.  Nothing here imports the package under test.
"""

import random
from dataclasses import dataclass
from math import gcd


@dataclass(frozen=True)
class Stratum:
    genus: int
    p_lo: int
    p_hi: int
    b_class: int            # +1: b a square mod p, -1: a nonsquare
    K: int | None = None    # required splitting degree, None: any
    n: int = 1              # curves per round
    extra: tuple = ()       # flags after the curve's

    @property
    def label(self):
        cls = "sq" if self.b_class == 1 else "nsq"
        k = "" if self.K is None else f"-K{self.K}"
        flag = f"-{self.extra[-1]}" if self.extra else ""
        return f"g{self.genus}-p{self.p_lo}-{cls}{k}{flag}"


@dataclass(frozen=True)
class Op:
    """One operation: a CLI invocation on one curve."""
    stratum: str
    command: str            # "count" or "chi-mod-p"
    genus: int
    p: int
    a: int
    b: int
    extra: tuple = ()

    def argv(self):
        return [self.command, "--p", str(self.p), "--genus", str(self.genus),
                "--a", str(self.a), "--b", str(self.b), *self.extra]


_BSGS = ("--trace-method", "bsgs")

WORKLOADS = {
    # the genus-3 algorithm with elliptic traces by BSGS, at the top of
    # the ladder; the other rungs are left out (see README.md)
    "count-g3": dict(
        command="count", distinct=True, round_s=6.5,
        strata=[Stratum(3, 1000000, 1100000, -1, extra=_BSGS)],
        # many curves settle a tie by counting points over F_p, and the
        # memory peak of a run would swing with whether any of its curves
        # does; one count over F_p at p ~ 1.1e6 before timing sets it
        warmup=[Op("warm-up", "zeta-oracle", 1, 1100009, 1, 3)]),
    # descents from F_{q^K}, K > 1, on genus 2 and 4; seven curves of
    # genus 2 put the median operation mid-cluster
    "count-descent": dict(
        command="count", distinct=False, round_s=27,
        strata=[Stratum(2, 1000, 1100, -1, K=4, n=7),
                Stratum(4, 31, 31, -1, K=2, n=3)]),
    # chi mod p, Cartier-Manin matrix against the factored table; the
    # curves of a stratum share their prime, so field caches are warm.
    # Four per stratum near 3000 put the median operation mid-cluster
    "cm-sweep": dict(
        command="chi-mod-p", distinct=False, round_s=30,
        strata=[Stratum(g, lo, hi, cls, n=n, extra=("--method", "both"))
                for lo, hi, n in ((3000, 3100, 4), (20000, 20500, 1))
                for g in range(2, 8) for cls in (1, -1)]),
}


def is_prime(n):
    if n < 2:
        return False
    for d in (2, 3, 5, 7, 11, 13):
        if n % d == 0:
            return n == d
    d = 17
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def splitting_degree(p, g, b):
    """Smallest k with a root of x^(2g) = b in F_{p^k}."""
    m = 2 * g
    for k in range(1, m + 1):
        e = (p ** k - 1) // gcd(m, p ** k - 1)
        if pow(b, e % (p - 1), p) == 1:
            return k
    raise ValueError("no splitting degree found")


def _b_ok(st, p, b):
    if pow(b, (p - 1) // 2, p) != (1 if st.b_class == 1 else p - 1):
        return False
    return st.K is None or splitting_degree(p, st.genus, b) == st.K


def _draw_b(st, p, rng):
    """b in the stratum at prime p, or None when p has none."""
    if st.K is not None:
        good = [b for b in range(1, p) if _b_ok(st, p, b)]
        return rng.choice(good) if good else None
    while True:
        b = rng.randrange(1, p)
        if _b_ok(st, p, b):
            return b


def _draw_prime(st, rng, used):
    """A prime of the window (not in used) with at least one b in the
    stratum, and that b."""
    tried = set()
    span = (st.p_hi - st.p_lo) // 2 + 1
    while len(tried) < span:
        p = (st.p_lo | 1) + 2 * rng.randrange(span)
        if p in tried:
            continue
        tried.add(p)
        if p > st.p_hi or p in used or not is_prime(p) or st.genus % p == 0:
            continue
        b = _draw_b(st, p, rng)
        if b is not None:
            return p, b
    raise ValueError(f"stratum {st.label} has no usable prime")


def make_round(workload, seed, index, used):
    """Operations of one round.  In a workload with distinct primes, used
    holds the primes taken so far, so each curve has a prime of its own
    and meets the package's field caches cold."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    ops = []
    for st in spec["strata"]:
        for j in range(st.n):
            # distinct primes: every curve draws its own; otherwise the
            # curves of a stratum share the prime of the first
            if spec["distinct"] or j == 0:
                p, b = _draw_prime(st, rng, used if spec["distinct"] else ())
                if spec["distinct"]:
                    used.add(p)
            else:
                b = _draw_b(st, p, rng)
            while True:
                a = rng.randrange(p)
                if (a * a - 4 * b) % p:
                    break
            ops.append(Op(st.label, spec["command"], st.genus, p, a, b,
                          st.extra))
    return ops


def warmup_ops(workload):
    """Operations run before timing, on curves no workload draws: a first
    call of each command, then the workload's own warm-up."""
    return [Op("warm-up", "count", 2, 7, 1, 3),
            Op("warm-up", "chi-mod-p", 2, 7, 1, 3),
            *WORKLOADS[workload].get("warmup", ())]


def rounds_for(workload, seconds):
    """Whole rounds that fill about `seconds` at the reference speed.

    The count depends only on the arguments, never on the clock, so two
    runs with the same arguments do the same operations."""
    return max(1, round(seconds / WORKLOADS[workload]["round_s"]))


def make_inputs(workload, seed, rounds):
    used = set()
    return [make_round(workload, seed, r, used) for r in range(rounds)]
