"""Command-line front end: scenario runs, sweeps, and the acceptance suite.

Subcommands::

    clonesim ideal    --a 0.6 --b 0.8 [--seed N] [--out DIR]
    clonesim dynamics --config run.cfg [--out DIR]
    clonesim sweep    --param eta --from 0 --to 1 --steps 11 --config run.cfg
    clonesim verify   [--seed N] [--out DIR]

Exit codes: 0 success, 1 adiabaticity/integrator diagnostic, 2 config error,
3 verification failure.  The environment variable CLONESIM_SEED overrides
every other seed source.  All numeric output is printed with 12 significant
digits.  Every command writes a manifest.json recording the resolved
configuration, tool version, seed, and output paths; reports themselves
carry no timestamps, so identical runs produce byte-identical reports.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

# Every matrix the program multiplies is at most 6x6, and OpenBLAS's extra
# threads, started at `import numpy`, only spin; one thread unless the user
# set a count (OpenBLAS reads these three, in this order).
if "numpy" not in sys.modules and not any(
        v in os.environ for v in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from . import __version__
from .config import (
    KEY_TABLE,
    ConfigError,
    RunSettings,
    load_config,
    settings_from_values,
    values_from_text,
)
from .protocol import (
    RESULT_FIELDS,
    SUMMARY_COLUMNS,
    Mode,
    fmt,
    pulse_csv,
    report_json,
    run,
    summary_csv,
)

__all__ = ["main"]

EXIT_OK = 0
EXIT_DIAGNOSTIC = 1
EXIT_CONFIG = 2
EXIT_VERIFY = 3

# sweepable aliases; any float-typed dotted key from the config table works too
SWEEP_ALIASES = {
    "t_total": ("alice.t_total", "bob.t_total"),
    "eta": ("detector.eta",),
    "dark_rate": ("detector.dark_rate",),
    "epsilon": ("alice.epsilon", "bob.epsilon"),
}

# A sweep holds each row twice, as its CSV line and in the joined file, plus
# its grid value: ~900 B per 230-character row at its peak under tracemalloc.
# MAX_SWEEP_STEPS holds that to 512 MiB.
_BYTES_PER_SWEEP_ROW = 1024
MAX_SWEEP_STEPS = (512 << 20) // _BYTES_PER_SWEEP_ROW


def _resolve_seed(fallback: int) -> int:
    """CLONESIM_SEED if set, else ``fallback``; a negative seed is a config error."""
    env = os.environ.get("CLONESIM_SEED")
    try:
        seed = fallback if env is None else int(env, 0)
    except ValueError:
        raise ConfigError(f"CLONESIM_SEED is not an integer: {env!r}") from None
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    return seed


def _with_seed(settings: RunSettings, seed: int) -> RunSettings:
    resolved = dict(settings.resolved)
    resolved["seed"] = seed
    return replace(settings, config=replace(settings.config, seed=seed),
                   resolved=resolved)


def _fmt_amp(z: complex) -> str:
    if complex(z).imag == 0.0:
        return fmt(complex(z).real)
    return format(complex(z), ".12g")


def _warn_renormalized(settings: RunSettings):
    dev = abs(settings.input_norm_sq - 1.0)
    if dev > 1e-6:
        q = settings.config.input
        print(f"warning: input amplitudes renormalized "
              f"(|a|^2+|b|^2 was {fmt(settings.input_norm_sq)}); using "
              f"a = {_fmt_amp(q.a)}, b = {_fmt_amp(q.b)}", file=sys.stderr)


def _write(out_dir: Path, name: str, text: str) -> str:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return str(path)


def _write_manifest(out_dir: Path, command: str, settings: RunSettings | None,
                    seed: int, outputs: list, config_path: str | None):
    """Write manifest.json beside ``outputs`` and print every file written."""
    doc = {
        "command": command,
        "config_path": config_path,
        "outputs": sorted(os.path.basename(p) for p in outputs),
        "resolved_config": None if settings is None else settings.resolved,
        "seed": seed,
        "timestamp": datetime.now(timezone.utc).isoformat(),
        "version": __version__,
    }
    outputs = outputs + [_write(out_dir, "manifest.json",
                                json.dumps(doc, indent=2, sort_keys=True) + "\n")]
    print("wrote: " + ", ".join(sorted(os.path.basename(p) for p in outputs)))


def _print_results(report):
    for name in RESULT_FIELDS:
        print(f"{name} = {fmt(getattr(report, name))}")
    if report.mc_trials > 0:
        print(f"mc_p_detected = {fmt(report.mc_p_detected)} "
              f"(trials = {report.mc_trials}, sigma = {fmt(report.mc_sigma)})")
    for note in report.diagnostics:
        print(f"diagnostic: {note}", file=sys.stderr)


def cmd_ideal(args) -> int:
    values = {"seed": str(args.seed), "input.a": args.a, "input.b": args.b}
    settings = settings_from_values(values, mode=Mode.ANALYTIC)
    settings = _with_seed(settings, _resolve_seed(settings.config.seed))
    _warn_renormalized(settings)

    report = run(settings.config)
    out = Path(args.out)
    outputs = [
        _write(out, "report.json", report_json(report)),
        _write(out, "summary.csv", summary_csv(report)),
    ]
    _print_results(report)
    _write_manifest(out, "ideal", settings, settings.config.seed, outputs, None)
    return EXIT_OK


def cmd_dynamics(args) -> int:
    settings = load_config(args.config, mode=Mode.DYNAMIC)
    settings = _with_seed(settings, _resolve_seed(settings.config.seed))
    _warn_renormalized(settings)

    try:
        report = run(settings.config)
    except (ValueError, RuntimeError) as exc:
        print(f"dynamics aborted: {exc}", file=sys.stderr)
        return EXIT_DIAGNOSTIC

    out = Path(args.out)
    rep_a, rep_b = report.dynamics_diags
    outputs = [
        _write(out, "report.json", report_json(report)),
        _write(out, "summary.csv", summary_csv(report)),
        _write(out, "pulse_alice.csv", pulse_csv(rep_a)),
        _write(out, "pulse_bob.csv", pulse_csv(rep_b)),
    ]
    _print_results(report)
    _write_manifest(out, "dynamics", settings, settings.config.seed, outputs, args.config)

    worst = max(rep_a.excited_pop_max, rep_b.excited_pop_max)
    if worst > settings.max_excited:
        print(f"adiabaticity violation: excited population peaked at "
              f"{fmt(worst)} > adiabaticity.max_excited = "
              f"{fmt(settings.max_excited)}", file=sys.stderr)
        return EXIT_DIAGNOSTIC
    return EXIT_OK


def _sweep_targets(param: str) -> tuple[str, ...]:
    if param in SWEEP_ALIASES:
        return SWEEP_ALIASES[param]
    if param in KEY_TABLE:
        parser, _ = KEY_TABLE[param]
        if parser.__name__ == "_parse_float":
            return (param,)
        raise ConfigError(f"config key {param!r} is not numeric-sweepable")
    raise ConfigError(
        f"unknown sweep parameter {param!r}; use one of "
        f"{sorted(SWEEP_ALIASES)} or a float-valued config key")


def cmd_sweep(args) -> int:
    targets = _sweep_targets(args.param)
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            base_values = values_from_text(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from None

    if not 1 <= args.steps <= MAX_SWEEP_STEPS:
        raise ConfigError(f"--steps must lie in [1, {MAX_SWEEP_STEPS}] (the sweep budget)")
    grid = np.linspace(args.start, args.stop, args.steps)

    header = ["param", "value", *SUMMARY_COLUMNS]
    rows = []
    settings = None
    for value in grid:
        values = dict(base_values)
        for key in targets:
            values[key] = repr(float(value))
        settings = settings_from_values(values, mode=Mode(args.mode))
        settings = _with_seed(settings, _resolve_seed(settings.config.seed))
        if not rows:                        # no sweepable key changes the input
            _warn_renormalized(settings)
        try:
            report = run(settings.config)
        except (ValueError, RuntimeError) as exc:
            print(f"sweep aborted at {args.param} = {fmt(value)}: {exc}",
                  file=sys.stderr)
            return EXIT_DIAGNOSTIC
        summary_lines = summary_csv(report).splitlines()
        rows.append(f"{args.param},{fmt(value)},{summary_lines[1]}")
        print(f"{args.param} = {fmt(value)}: "
              f"clone_fidelity_1 = {fmt(report.clone_fidelity_1)}, "
              f"p_detected = {fmt(report.p_detected)}, "
              f"overlap_visibility = {fmt(report.overlap_visibility)}")
        for note in report.diagnostics:
            print(f"diagnostic: {args.param} = {fmt(value)}: {note}", file=sys.stderr)

    out = Path(args.out)
    outputs = [_write(out, "sweep.csv", ",".join(header) + "\n" + "\n".join(rows) + "\n")]
    _write_manifest(out, "sweep", settings, settings.config.seed, outputs, args.config)
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import acceptance

    seed = _resolve_seed(args.seed)
    first = acceptance.run_all(seed)
    second = acceptance.run_all(seed)
    b1 = acceptance.suite_bytes(first)
    b2 = acceptance.suite_bytes(second)
    repro = acceptance.reproducibility_criterion(b1, b2)

    rows = list(first.criteria) + [repro]
    print(acceptance.format_table(rows))
    doc = acceptance.suite_dict(first)
    doc["criteria"].append(acceptance.criterion_dict(repro))
    doc["passed"] = bool(first.passed and repro.passed)
    out = Path(args.out)
    outputs = [_write(out, "verify_report.json",
                      json.dumps(doc, indent=2, sort_keys=True) + "\n")]
    _write_manifest(out, "verify", None, seed, outputs, None)
    # a budget overrun fails the run without touching the physics verdicts
    return EXIT_OK if doc["passed"] and first.within_budget else EXIT_VERIFY


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clonesim",
        description="Qubit-to-two-photon cloning protocol simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_ideal = sub.add_parser("ideal", help="perfect-passage run from amplitudes")
    p_ideal.add_argument("--a", required=True, help="amplitude of |0>/|H> (complex ok)")
    p_ideal.add_argument("--b", required=True, help="amplitude of |1>/|V> (complex ok)")
    p_ideal.add_argument("--seed", type=int, default=0)
    p_ideal.add_argument("--out", default=".")
    p_ideal.set_defaults(func=cmd_ideal)

    p_dyn = sub.add_parser("dynamics", help="integrated-passage run from a config file")
    p_dyn.add_argument("--config", required=True)
    p_dyn.add_argument("--out", default=".")
    p_dyn.set_defaults(func=cmd_dynamics)

    p_sweep = sub.add_parser("sweep", help="one-parameter sweep to CSV")
    p_sweep.add_argument("--param", required=True,
                         help=f"alias {sorted(SWEEP_ALIASES)} or float config key")
    p_sweep.add_argument("--from", dest="start", type=float, required=True)
    p_sweep.add_argument("--to", dest="stop", type=float, required=True)
    p_sweep.add_argument("--steps", type=int, required=True)
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--mode", choices=[m.value for m in Mode],
                         default=Mode.DYNAMIC.value)
    p_sweep.add_argument("--out", default=".")
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the acceptance suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=".")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
