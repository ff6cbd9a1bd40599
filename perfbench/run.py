"""clonesim benchmark: one workload, one seed, one measurement window.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload dynamic --seed 1 --seconds 50 --trace 0

``--trace 0`` times the workload with nothing wrapped and prints the
end-to-end metrics; ``--trace 1`` runs the requests in process, alternating
untraced requests and requests with span recording, and prints the
per-layer metrics plus ``trace.overhead_frac``.  Every request's output is checked;
the last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

import benchstats  # noqa: E402
import calibration  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 5
WARMUP_REQUESTS = 50
EXIT_CODES = (0, 1, 2, 3)


def load_program():
    """Import the checkout's clonesim modules (not any installed copy)."""
    sys.path.insert(0, str(ROOT / "src"))
    import clonesim.cli
    import clonesim.cloner
    import clonesim.config
    import clonesim.optics
    import clonesim.protocol
    return SimpleNamespace(cli=clonesim.cli, cloner=clonesim.cloner,
                           config=clonesim.config, optics=clonesim.optics,
                           protocol=clonesim.protocol)


@dataclass
class Samples:
    """Per-request measurements of one closed-loop pass."""

    latency: list = field(default_factory=list)
    cpu: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    output_bytes: list = field(default_factory=list)
    exit_codes: Counter = field(default_factory=Counter)
    failures: Counter = field(default_factory=Counter)
    failed: int = 0

    def add(self, latency, cpu, failed, rss_mb=None, output_bytes=0, exit_code=None):
        self.latency.append(latency)
        self.cpu.append(cpu)
        if rss_mb is not None:
            self.rss_mb.append(rss_mb)
        self.output_bytes.append(output_bytes)
        if exit_code is not None:
            self.exit_codes[exit_code] += 1
        if failed:
            self.failed += 1
            self.failures.update(failed)


def closed_loop(seconds: float, step, min_requests: int = 1,
                calibrate: bool = False) -> list:
    """One client, one request in flight, until the window would be overrun.

    ``step(i)`` runs request i and returns its latency.  After
    ``min_requests`` requests, a further one starts only if the last latency
    still fits before the deadline.  With ``calibrate`` the loop runs in
    blocks of BLOCK_S with the calibration kernel between blocks; otherwise
    it is one block at the reference speed.  Returns the
    ``calibration.Block`` list, indexed by request number.
    """
    if calibrate:
        block_s, kernel = calibration.BLOCK_S, calibration.kernel_seconds
    else:
        block_s, kernel = math.inf, lambda: calibration.REF_KERNEL_S
    deadline = time.perf_counter() + seconds
    blocks = []
    before = kernel()
    i = 0
    done = False
    while not done:
        b0 = time.perf_counter()
        first = i
        while True:
            latency = step(i)
            i += 1
            now = time.perf_counter()
            done = i >= min_requests and now + latency > deadline
            if done or now - b0 >= block_s:
                break
        after = kernel()
        blocks.append(calibration.Block(first, i, now - b0, 0.5 * (before + after)))
        before = after
    return blocks


# ---------------------------------------------------------------------------
# request steps: each runs request i, records it in ``s`` and returns its latency
# ---------------------------------------------------------------------------


def cli_child_step(workload, rng, tmp, env, s: Samples):
    make = wl.MAKERS[workload]

    def step(i):
        req = make(rng, tmp, i)
        log = tmp / f"req{i}"
        res = wl.spawn(["-m", "clonesim.cli", *req.argv], env, log)
        wl.finish_cli(req, res.exit_code)
        if req.failed:
            _report_child_failure(req.failed, log)
        for suffix in (".out", ".err"):
            Path(f"{log}{suffix}").unlink(missing_ok=True)
        s.add(res.wall_s, res.cpu_s, req.failed, res.maxrss_mb,
              req.output_bytes, res.exit_code)
        return res.wall_s
    return step


def cli_inprocess_step(workload, rng, tmp, mods, s: Samples, tracer=None):
    make = wl.MAKERS[workload]

    def step(i):
        req = make(rng, tmp, i)
        if tracer is not None:
            tracer.request = i
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            code = wl.run_cli_inprocess(lambda argv: mods.cli.main(argv), req.argv)
            crash = None
        except Exception as exc:  # a crash is a failed request, not a benchmark abort
            code, crash = -1, f"exception:{type(exc).__name__}"
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        wl.finish_cli(req, code)
        s.add(latency, cpu, [crash] if crash else req.failed, None,
              req.output_bytes, code)
        return latency
    return step


def analytic_step(rng, mods, s: Samples, tracer=None):
    def step(i):
        item = wl.make_analytic(rng)
        if tracer is not None:
            tracer.request = i
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            result = wl.analytic_request(mods, item)
            crash = None
        except Exception as exc:  # a crash is a failed request, not a benchmark abort
            crash = f"exception:{type(exc).__name__}"
        latency, cpu = time.perf_counter() - t0, time.process_time() - c0
        s.add(latency, cpu, [crash] if crash else wl.check_analytic_result(item, result))
        return latency
    return step


def _report_child_failure(failed, log: Path):
    err = Path(f"{log}.err")
    tail = err.read_text(encoding="utf-8", errors="replace")[-400:] if err.exists() else ""
    print(f"request failed checks {failed}; stderr tail: {tail!r}", file=sys.stderr)


def workload_rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, wl.WORKLOADS.index(workload)])


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


class SetupError(RuntimeError):
    pass


def measure_setup(workload: str, seed: int, tmp: Path, env: dict) -> list:
    """Wall time of SETUP_PROBES fresh interpreters doing the workload's set-up.

    CLI workloads: importing clonesim.cli, what every CLI request pays before
    any work.  analytic: import, input generation and warm-up requests.
    """
    if workload == "analytic":
        argv = [str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", "1", "--trace", "0", "--probe-setup"]
    else:
        argv = ["-c", "import clonesim.cli"]
    times = []
    for k in range(SETUP_PROBES):
        log = tmp / f"setup{k}"
        res = wl.spawn(argv, env, log)
        if res.exit_code != 0:
            err = Path(f"{log}.err").read_text(encoding="utf-8", errors="replace")
            raise SetupError(f"set-up probe exited {res.exit_code}: {err[-400:]}")
        times.append(res.wall_s)
    return times


def warm_up(mods, seed: int):
    """Run WARMUP_REQUESTS untimed analytic requests; any failure is a set-up error."""
    rng = np.random.default_rng([seed, len(wl.WORKLOADS)])
    for _ in range(WARMUP_REQUESTS):
        item = wl.make_analytic(rng)
        failed = wl.check_analytic_result(item, wl.analytic_request(mods, item))
        if failed:
            raise SetupError(f"warm-up request failed checks {failed}")


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------


def timed_run(workload: str, seed: int, seconds: int, tmp: Path):
    env = wl.child_env(ROOT)
    setup = measure_setup(workload, seed, tmp, env)
    rng = workload_rng(workload, seed)
    s = Samples()
    notes = []
    if workload == "analytic":
        mods = load_program()
        warm_up(mods, seed)
        blocks = closed_loop(seconds, analytic_step(rng, mods, s), calibrate=True)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        kernel = statistics.median(b.kernel_s for b in blocks)
        notes.append(f"timings scaled to calibration speed: median kernel {kernel:.6g} s "
                     f"vs reference {calibration.REF_KERNEL_S} s over {len(blocks)} blocks; "
                     f"raw latency_p50_s = {statistics.median(s.latency):.6g} s, raw "
                     f"throughput_rps = {len(s.latency) / sum(b.wall for b in blocks):.6g} 1/s")
    else:
        blocks = closed_loop(seconds, cli_child_step(workload, rng, tmp, env, s))
        peak_rss = max(s.rss_mb)

    latency = calibration.scale(blocks, s.latency)
    cpu = calibration.scale(blocks, s.cpu)
    n = len(latency)
    tail_p, beyond = benchstats.tail_percentile(n)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "latency_p50_s": (statistics.median(latency), "s"),
        "latency_tail_s": (benchstats.percentile(latency, tail_p), "s"),
        "throughput_rps": (n / calibration.scaled_wall(blocks), "1/s"),
        "cpu_s_per_request": (statistics.median(cpu), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    notes += [
        f"failed_frac = {s.failed / n} (failed {s.failed} of {n} attempted)",
        f"latency_tail_s is p{tail_p:g} with {beyond} of {n} samples beyond it",
        f"setup probes (s): {', '.join(f'{t:.4f}' for t in setup)}",
    ]
    return s, metrics, notes


def install_tracing(tracer: spans.Tracer, mods):
    """Wrap each traced function at every name a caller looks it up by."""
    P = mods

    def on_evolve(tr, rep):
        steps = len(rep.t_grid) - 1
        tr.count("evolve.steps", steps)
        tr.count("evolve.hold_steps",
                 int(np.count_nonzero(rep.t_grid[:-1] >= rep.omega.t_ramp)))
        tr.peak("evolve.closure_error_max", rep.closure_error)
        arrays = [rep.t_grid, rep.pulse_shape, *rep.channel_pulses.values()]
        tr.peak("evolve.grid_bytes", sum(a.nbytes for a in arrays))

    tracer.wrap(P.protocol, "evolve", "adiabatic.evolve", on_evolve)
    tracer.wrap(P.protocol, "pulse_overlap_complex", "adiabatic.pulse_overlap_complex")
    tracer.wrap(P.protocol, "detection_bookkeeping", "optics.detection_bookkeeping",
                lambda tr, rep: tr.count("optics.count_patterns", len(rep.count_distribution)))
    for owner in (P.protocol, P.optics):
        tracer.wrap(owner, "symmetric_project", "optics.symmetric_project")
    for owner in (P.protocol, P.optics, P.cloner):
        tracer.wrap(owner, "partial_trace", "qstate.partial_trace")
        tracer.wrap(owner, "tensor", "qstate.tensor")
    for owner in (P.protocol, P.cloner):
        tracer.wrap(owner, "fidelity_pure", "qstate.fidelity_pure")
    tracer.wrap(P.cloner, "clone", "cloner.clone")
    for owner in (P.protocol, P.cli):
        tracer.wrap(owner, "run", "protocol.run",
                    lambda tr, rep: tr.count("qstate.rho_entries", len(rep.rho_post.entries)))
    tracer.wrap(P.protocol, "detector_model", "protocol.detector_model",
                lambda tr, rep: tr.count("protocol.mc_trials", rep.mc_trials))
    for name in ("report_json", "pulse_csv", "summary_csv"):
        tracer.wrap(P.cli, name, f"protocol.{name}")
    for name in ("load_config", "settings_from_values", "values_from_text"):
        tracer.wrap(P.cli, name, "config.parse")
    tracer.wrap(P.config, "settings_from_values", "config.parse")
    tracer.wrap(P.cli, "main", "cli.main")


def layer_metrics(tracer: spans.Tracer, traced: Samples, untraced: Samples) -> dict:
    n = len(traced.latency)
    st = spans.self_times(tracer.spans)
    cc = spans.call_counts(tracer.spans)
    c, mx = tracer.counters, tracer.maxima

    def per_req(x):
        return x / n

    steps = c["evolve.steps"]
    evolve_self = st.get("adiabatic.evolve", 0.0)
    m = {
        "adiabatic.evolve.calls": (per_req(cc.get("adiabatic.evolve", 0)), "calls/req"),
        "adiabatic.evolve.steps": (per_req(steps), "steps/req"),
        "adiabatic.evolve.self_s": (per_req(evolve_self), "s/req"),
        "adiabatic.evolve.us_per_step": (evolve_self * 1e6 / steps if steps else 0.0, "us"),
        "adiabatic.evolve.hold_steps": (per_req(c["evolve.hold_steps"]), "steps/req"),
        "adiabatic.evolve.closure_error_max": (mx["evolve.closure_error_max"], "prob"),
        "adiabatic.evolve.grid_bytes": (mx["evolve.grid_bytes"], "B"),
    }
    for name in ("adiabatic.pulse_overlap_complex", "optics.symmetric_project",
                 "qstate.fidelity_pure", "qstate.tensor", "protocol.run",
                 "protocol.detector_model", "protocol.report_json", "protocol.pulse_csv",
                 "protocol.summary_csv", "config.parse", "cli.main"):
        m[f"{name}.self_s"] = (per_req(st.get(name, 0.0)), "s/req")
    for name in ("optics.detection_bookkeeping", "qstate.partial_trace", "cloner.clone"):
        m[f"{name}.calls"] = (per_req(cc.get(name, 0)), "calls/req")
        m[f"{name}.self_s"] = (per_req(st.get(name, 0.0)), "s/req")
    bk_calls = cc.get("optics.detection_bookkeeping", 0)
    runs = cc.get("protocol.run", 0)
    m["optics.count_patterns"] = (c["optics.count_patterns"] / bk_calls if bk_calls else 0.0,
                                  "count")
    m["qstate.rho_entries"] = (c["qstate.rho_entries"] / runs if runs else 0.0, "count")
    m["protocol.detector_model.mc_trials"] = (per_req(c["protocol.mc_trials"]), "trials/req")
    m["cli.output_bytes"] = (statistics.mean(traced.output_bytes), "B/req")
    for code in EXIT_CODES:
        m[f"cli.exit.{code}"] = (traced.exit_codes.get(code, 0), "count")
    m["trace.requests"] = (n, "count")
    m["trace.overhead_frac"] = (statistics.median(traced.latency)
                                / statistics.median(untraced.latency) - 1.0, "ratio")
    return m


def traced_run(workload: str, seed: int, seconds: int, tmp: Path):
    """Alternate untraced and traced requests in process for the whole window.

    Alternating, rather than two halves, exposes both passes to the same
    drift in machine speed, so their ratio measures the tracing overhead.
    """
    mods = load_program()
    rng = workload_rng(workload, seed)
    untraced, traced = Samples(), Samples()
    tracer = spans.Tracer()
    if workload == "analytic":
        warm_up(mods, seed)
        plain = analytic_step(rng, mods, untraced)
        wrapped = analytic_step(rng, mods, traced, tracer)
    else:
        plain = cli_inprocess_step(workload, rng, tmp, mods, untraced)
        wrapped = cli_inprocess_step(workload, rng, tmp, mods, traced, tracer)

    def step(i):
        if i % 2 == 0:
            return plain(i)
        install_tracing(tracer, mods)
        try:
            return wrapped(i)
        finally:
            tracer.restore()

    closed_loop(seconds, step, min_requests=2)
    merged = Samples(latency=untraced.latency + traced.latency,
                     failures=untraced.failures + traced.failures,
                     failed=untraced.failed + traced.failed)
    notes = [f"failed_frac = {merged.failed / len(merged.latency)} (failed {merged.failed} "
             f"of {len(merged.latency)} attempted)",
             f"spans recorded: {len(tracer.spans)} over {len(traced.latency)} traced requests"]
    return merged, layer_metrics(tracer, traced, untraced), notes


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description="clonesim benchmark (see perfbench/README.md)")
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "clonesim" / "cli.py").is_file():
        print(f"error: no clonesim sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    os.environ.pop("CLONESIM_SEED", None)   # it would override every generated seed

    if args.probe_setup:
        try:
            warm_up(load_program(), args.seed)
        except SetupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return 0

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        run = traced_run if args.trace else timed_run
        samples, metrics, notes = run(args.workload, args.seed, args.seconds, tmp)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass   # another run still uses it

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for line in notes:
        print(f"{args.workload} {line}")
    for check, count in sorted(samples.failures.items()):
        print(f"{args.workload} failed check {check}: {count}")
    attempted = len(samples.latency)
    print(json.dumps({
        "correct": samples.failed == 0,
        "attempted": attempted,
        "failed": samples.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
