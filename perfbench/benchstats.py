"""Order statistics for the benchmark: medians, tail percentiles, run-set spread.

Everything here is pure Python on lists of floats, so the harness tests can
exercise it without running the simulator.
"""

from __future__ import annotations

import math
import statistics

# Candidate tail percentiles, highest first.  The reported tail is the highest
# one that still has at least TAIL_MIN_BEYOND samples above it.  The ladder
# stops at p99: with 10-20 samples beyond it, p99.9 of a 50 s analytic run
# measured rare interpreter and scheduler pauses and moved ~40 % run to run.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10


def percentile(values, p: float) -> float:
    """Linear-interpolation percentile (numpy's default rule); p in [0, 100]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of an empty sample")
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """Samples of an n-sample set (distinct values) above its ``percentile``."""
    return n - 1 - math.floor((n - 1) * p / 100.0)


def tail_percentile(n: int) -> tuple[float, int]:
    """(percentile, samples beyond it) for the tail of an n-sample set.

    The highest ladder percentile with at least TAIL_MIN_BEYOND samples
    beyond it.  A set too small for any of them falls back to the median,
    so the tail then reads the same as p50; the returned count says so.
    """
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= TAIL_MIN_BEYOND:
            return p, samples_beyond(n, p)
    return 50.0, samples_beyond(n, 50.0)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def worsening(first_median: float, second_median: float, better: str) -> float:
    """Share of the first median by which the second is worse (negative: better)."""
    delta = second_median - first_median
    if better == "higher":
        delta = -delta
    return delta / first_median


def compare_run_sets(first: dict, second: dict, spec: list) -> list[str]:
    """Problems found when two sets of runs of the same code are compared.

    ``first`` and ``second`` map workload -> metric -> list of values, one per
    run.  ``spec`` is the ``end_to_end`` list of BENCHMARK.json.  Each set's
    quartile spread must stay within the metric's bound (``setup_s`` is
    exempt), and the second median may not be worse than the first by more
    than the bound.  An empty list means the two sets agree.
    """
    problems = []
    for workload in sorted(first):
        for m in spec:
            name, bound = m["name"], m["bound"]
            a = first[workload].get(name)
            b = second.get(workload, {}).get(name)
            if not a or not b:
                problems.append(f"{workload}/{name}: missing values")
                continue
            if name != "setup_s":
                for label, vals in (("first", a), ("second", b)):
                    s = quartile_spread(vals)
                    if s > bound:
                        problems.append(f"{workload}/{name}: {label} spread "
                                        f"{s:.4f} > bound {bound}")
            w = worsening(statistics.median(a), statistics.median(b), m["better"])
            if w > bound:
                problems.append(f"{workload}/{name}: second median worse by "
                                f"{w:.4f} > bound {bound}")
    return problems
