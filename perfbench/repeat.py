"""Run the benchmark several times per workload and report each metric's spread.

Usage (from the root of a checkout)::

    python3 perfbench/repeat.py --runs 10 --first-seed 100 --save set1.json
    python3 perfbench/repeat.py --runs 10 --first-seed 200 --against set1.json

Each run gets its own seed (first-seed, first-seed + 1, ...).  For every
end-to-end metric the report gives the median, the quartile spread
(Q3 - Q1) / median and the metric's bound from BENCHMARK.json.
``--runs 1 --workloads dynamic sweep-eta analytic`` prints every end-to-end
metric of all three workloads for one seed in one command.  With
``--against`` the new set is compared with a saved one by
``benchstats.compare_run_sets``; the exit code is 1 if they disagree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import benchstats  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-400:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads", nargs="+", default=names, choices=WORKLOADS,
                   help="default: the workloads of BENCHMARK.json")
    p.add_argument("--seconds", type=int, default=spec["run_seconds"])
    p.add_argument("--save", help="write the collected values to this JSON file")
    p.add_argument("--against", help="compare with a set saved by --save")
    args = p.parse_args(argv)

    values: dict = {}
    for workload in args.workloads:
        per_metric: dict = {}
        for k in range(args.runs):
            doc = run_once(workload, args.first_seed + k, args.seconds, 0)
            if not doc["correct"]:
                print(f"{workload} seed {args.first_seed + k}: {doc['failed']} of "
                      f"{doc['attempted']} requests failed", file=sys.stderr)
            for name, m in doc["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
        values[workload] = per_metric
        for m in spec["end_to_end"]:
            vals = per_metric[m["name"]]
            spread = benchstats.quartile_spread(vals) if len(vals) > 1 else 0.0
            print(f"{workload:10s} {m['name']:18s} median {statistics.median(vals):.6g} "
                  f"{m['unit']:4s} spread {spread:.4f} (bound {m['bound']}, "
                  f"target < {m['bound'] / 3:.4f})", flush=True)

    if args.save:
        Path(args.save).write_text(json.dumps(values, indent=1) + "\n", encoding="utf-8")
    if args.against:
        first = json.loads(Path(args.against).read_text(encoding="utf-8"))
        problems = benchstats.compare_run_sets(
            {w: first[w] for w in args.workloads}, values, spec["end_to_end"])
        for line in problems:
            print(f"disagree: {line}")
        print("sets agree" if not problems else f"{len(problems)} disagreements")
        return 1 if problems else 0
    return 0


if __name__ == "__main__":
    sys.exit(main())
