"""Seeded request generation and request execution for the three workloads.

Every input is drawn from a ``numpy.random.Generator`` seeded by the
benchmark's ``--seed``; the program only ever receives the generated config
files, argument lists or config values.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import select
import shutil
import signal
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import checks

WORKLOADS = ("dynamic", "sweep-eta", "analytic")

# Integrated-route schedule shared by `dynamic` and `sweep-eta`: default
# physics, t_total 100, drive 2 and 2*sqrt(2) (the matched-drive ratio).
# 10k + 14.1k RK4 steps per request, the same per-step work as the default
# schedule's 200k + 283k at a size that fits many requests in one run.
T_TOTAL = 100.0
OMEGA_ALICE = 2.0
OMEGA_BOB = 2.0 * math.sqrt(2.0)
SWEEP_POINTS = 4

# analytic traffic mix
DARK_SHARE = 0.5          # requests with dark counts switched on
DARK_RATE_MAX = 4e-3      # x window 10 keeps the per-window dark click < 4 %
MC_SHARE = 0.2            # requests that also run the detection Monte Carlo
MC_TRIALS = 20000

CHILD_TIMEOUT_S = 60.0


def haar_amplitudes(rng: np.random.Generator) -> tuple[complex, complex]:
    """Haar-random qubit a|0> + b|1>: cos(theta) uniform, phase uniform."""
    cos_t = rng.uniform(-1.0, 1.0)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    a = complex(math.sqrt(0.5 * (1.0 + cos_t)))
    b = complex(math.cos(phi), math.sin(phi)) * math.sqrt(0.5 * (1.0 - cos_t))
    return a, b


def _config_text(rng: np.random.Generator, eta: float | None) -> str:
    a, b = haar_amplitudes(rng)
    lines = [
        f"seed = {int(rng.integers(0, 2**31))}",
        f"input.a = {a!r}",
        f"input.b = {b!r}",
        f"alice.t_total = {T_TOTAL!r}",
        f"bob.t_total = {T_TOTAL!r}",
        f"alice.omega_max = {OMEGA_ALICE!r}",
        f"bob.omega_max = {OMEGA_BOB!r}",
    ]
    if eta is not None:
        lines.append(f"detector.eta = {eta!r}")
    return "\n".join(lines) + "\n"


@dataclass
class CliRequest:
    """One CLI invocation: its argv after ``clonesim`` and how to check it."""

    argv: list
    out_dir: Path
    check: object          # (exit_code, out_dir) -> list of failed check names
    output_bytes: int = 0
    failed: list = field(default_factory=list)


def _read(path: Path) -> str | None:
    try:
        return path.read_text(encoding="utf-8")
    except OSError:
        return None


def make_dynamic(rng: np.random.Generator, tmp: Path, i: int) -> CliRequest:
    eta = float(rng.uniform(0.5, 1.0))
    cfg = tmp / f"dyn{i}.cfg"
    cfg.write_text(_config_text(rng, eta), encoding="utf-8")
    out = tmp / f"dyn{i}"

    def check(code: int, out_dir: Path) -> list:
        text = _read(out_dir / "report.json")
        report = json.loads(text) if text is not None else None
        names = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
        return checks.check_dynamic(code, report, eta, names)

    return CliRequest(["dynamics", "--config", str(cfg), "--out", str(out)], out, check)


def make_sweep(rng: np.random.Generator, tmp: Path, i: int) -> CliRequest:
    start = float(rng.uniform(0.3, 0.6))
    stop = float(rng.uniform(0.8, 1.0))
    etas = [float(e) for e in np.linspace(start, stop, SWEEP_POINTS)]
    cfg = tmp / f"sweep{i}.cfg"
    cfg.write_text(_config_text(rng, None), encoding="utf-8")
    out = tmp / f"sweep{i}"

    def check(code: int, out_dir: Path) -> list:
        return checks.check_sweep(code, _read(out_dir / "sweep.csv"), etas)

    argv = ["sweep", "--param", "eta", "--from", repr(start), "--to", repr(stop),
            "--steps", str(SWEEP_POINTS), "--config", str(cfg), "--mode", "dynamic",
            "--out", str(out)]
    return CliRequest(argv, out, check)


MAKERS = {"dynamic": make_dynamic, "sweep-eta": make_sweep}


def finish_cli(req: CliRequest, code: int):
    """Check a finished request, count its output bytes, delete its outputs."""
    req.failed = req.check(code, req.out_dir)
    if req.out_dir.is_dir():
        req.output_bytes = sum(p.stat().st_size for p in req.out_dir.iterdir())
        shutil.rmtree(req.out_dir)


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    """Environment for children: the checkout's sources, no seed override."""
    env = {k: v for k, v in os.environ.items() if k != "CLONESIM_SEED"}
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    exit_code: int
    wall_s: float
    cpu_s: float        # the child's own user + sys time (wait4)
    maxrss_mb: float    # the child's own peak RSS (wait4)


def spawn(argv: list, env: dict, log_prefix: Path,
          timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run ``python argv...`` to completion; resources from its own rusage.

    stdout/stderr go to files next to ``log_prefix``.  A child still running
    after ``timeout`` seconds is killed and reported with exit code -9.
    """
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, f"{log_prefix}.out", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, f"{log_prefix}.err", os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
    ]
    t0 = time.perf_counter()
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], env, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    ready = []
    try:
        ready, _, _ = select.select([pidfd], [], [], timeout)
    finally:
        if not ready:   # timed out, or the benchmark itself was interrupted
            os.kill(pid, signal.SIGKILL)
        _, status, ru = os.wait4(pid, 0)
        os.close(pidfd)
    wall = time.perf_counter() - t0
    return ChildResult(os.waitstatus_to_exitcode(status), wall,
                       ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0)


def run_cli_inprocess(cli_main, argv: list) -> int:
    """``clonesim.cli.main(argv)`` with its printing captured and discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli_main(argv)


# ---------------------------------------------------------------------------
# analytic requests (in process)
# ---------------------------------------------------------------------------


@dataclass
class AnalyticItem:
    values: dict         # config key -> string value, as a config file holds them
    dark_rate: float


def make_analytic(rng: np.random.Generator) -> AnalyticItem:
    a, b = haar_amplitudes(rng)
    dark = float(rng.uniform(1e-4, DARK_RATE_MAX)) if rng.random() < DARK_SHARE else 0.0
    mc = MC_TRIALS if rng.random() < MC_SHARE else 0
    values = {
        "seed": str(int(rng.integers(0, 2**31))),
        "input.a": repr(a),
        "input.b": repr(b),
        "detector.eta": repr(float(rng.uniform(0.5, 1.0))),
        "detector.dark_rate": repr(dark),
        "detector.mc_trials": str(mc),
    }
    return AnalyticItem(values, dark)


def analytic_request(mods, item: AnalyticItem):
    """One request: parse, analytic protocol run, cloner oracle fidelities.

    Names are looked up on the modules at call time so a traced pass sees
    its wrappers.
    """
    settings = mods.config.settings_from_values(item.values)
    report = mods.protocol.run(settings.config)
    q = settings.config.input
    return report, mods.cloner.clone_fidelity(q), mods.cloner.unot_fidelity(q)


def check_analytic_result(item: AnalyticItem, result) -> list:
    report, f_clone, f_unot = result
    return checks.check_analytic(report, item.dark_rate, f_clone, f_unot)
