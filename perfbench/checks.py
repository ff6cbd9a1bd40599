"""Per-request correctness checks.  Each returns the names of the checks that failed.

Tolerances:
- analytic constants (5/6, 2/3, 3/4, 3/8) to 1e-9 / 1e-12: the exact algebra
  reproduces them to rounding.
- integrated-route fidelities to REF_TOL = 1e-6 of the values this schedule
  gave when the benchmark was defined.  They are input-independent to ~1e-15;
  the whole visibility deficit of the schedule is ~3e-5, so a wrong channel
  vector or overlap shows, while an integrator that stays inside the
  accuracy budget (closure <= 1e-8) does not trip it.
- the sweep CSV prints 12 significant digits, so its eta^2 law is checked to
  SWEEP_RATIO_TOL relative (two roundings of 5e-12 each).
"""

from __future__ import annotations

import csv
import io
import math

# Integrated route on the benchmark schedule (t_total 100, omega_max 2 / 2*sqrt(2)).
REF_CLONE_FIDELITY = 0.8333036683909023
REF_TELENOT_FIDELITY = 0.6666073367818046
REF_TOL = 1e-6
CLOSURE_MAX = 1e-8
SWEEP_RATIO_TOL = 2e-11

F_CLONE = 5.0 / 6.0
F_TELENOT = 2.0 / 3.0
CONST_TOL = 1e-9
EXACT_TOL = 1e-12
MC_SIGMAS = 5.0

DYNAMIC_OUTPUTS = ("report.json", "summary.csv", "pulse_alice.csv",
                   "pulse_bob.csv", "manifest.json")


def check_dynamic(exit_code: int, report: dict | None, eta: float,
                  outputs: set) -> list[str]:
    """Checks on one ``clonesim dynamics`` run; ``report`` is report.json parsed."""
    if exit_code != 0:
        return [f"exit_code_{exit_code}"]
    failed = []
    if not set(DYNAMIC_OUTPUTS) <= outputs or report is None:
        return ["outputs_written"]
    r = report["results"]
    if r["clone_fidelity_1"] != r["clone_fidelity_2"]:
        failed.append("clone_symmetry")
    if abs(r["clone_fidelity_1"] - REF_CLONE_FIDELITY) > REF_TOL:
        failed.append("clone_fidelity_ref")
    if abs(r["telenot_fidelity"] - REF_TELENOT_FIDELITY) > REF_TOL:
        failed.append("telenot_fidelity_ref")
    if any(node["closure_error"] > CLOSURE_MAX for node in report["dynamics"].values()):
        failed.append("closure")
    if abs(r["p_symmetric"] - 0.75) > EXACT_TOL:
        failed.append("p_symmetric")
    if r["p_detected"] != r["p_operational"] * eta * eta:
        failed.append("eta_law")
    return failed


def check_sweep(exit_code: int, csv_text: str | None, etas: list) -> list[str]:
    """Checks on one ``clonesim sweep --param eta --mode dynamic`` run."""
    if exit_code != 0:
        return [f"exit_code_{exit_code}"]
    if csv_text is None:
        return ["outputs_written"]
    rows = list(csv.DictReader(io.StringIO(csv_text)))
    if len(rows) != len(etas):
        return ["row_count"]
    failed = []
    fid_cols = ("clone_fidelity_1", "clone_fidelity_2", "telenot_fidelity")
    if len({tuple(row[c] for c in fid_cols) for row in rows}) != 1:
        failed.append("fidelity_identical")
    if (abs(float(rows[0]["clone_fidelity_1"]) - REF_CLONE_FIDELITY) > REF_TOL
            or abs(float(rows[0]["telenot_fidelity"]) - REF_TELENOT_FIDELITY) > REF_TOL):
        failed.append("fidelity_ref")
    for row, eta in zip(rows, etas):
        ratio = float(row["p_detected"]) / float(row["p_operational"])
        if abs(ratio - eta * eta) > SWEEP_RATIO_TOL * eta * eta:
            failed.append("eta_law")
            break
    return failed


def check_analytic(report, dark_rate: float, oracle_clone: float,
                   oracle_unot: float) -> list[str]:
    """Checks on one analytic ``protocol.run`` report plus the cloner oracle."""
    failed = []
    w = report.false_herald_fraction
    if dark_rate == 0.0 and w != 0.0:
        failed.append("no_dark_dilution")
    if dark_rate > 0.0 and not 0.0 < w < 1.0:
        failed.append("false_herald_range")
    # undo the dark-count dilution F = (1 - w) F0 + w / 2
    f1, f2, ft = ((f - 0.5 * w) / (1.0 - w) for f in
                  (report.clone_fidelity_1, report.clone_fidelity_2,
                   report.telenot_fidelity))
    if abs(f1 - F_CLONE) > CONST_TOL or abs(f2 - F_CLONE) > CONST_TOL:
        failed.append("clone_fidelity_5_6")
    if abs(ft - F_TELENOT) > CONST_TOL:
        failed.append("telenot_fidelity_2_3")
    if abs(oracle_clone - f1) > CONST_TOL or abs(oracle_unot - ft) > CONST_TOL:
        failed.append("oracle_agreement")
    if abs(report.p_symmetric - 0.75) > EXACT_TOL:
        failed.append("p_symmetric")
    if abs(report.p_operational - 0.375) > EXACT_TOL:
        failed.append("p_operational_3_8")
    eta = report.config.detector.eta
    if dark_rate == 0.0 and report.p_detected != report.p_operational * eta * eta:
        failed.append("eta_law")
    if report.mc_trials > 0:
        if not (report.mc_sigma > 0 and math.isfinite(report.mc_p_detected)
                and abs(report.mc_p_detected - report.p_detected)
                <= MC_SIGMAS * report.mc_sigma):
            failed.append("monte_carlo_5sigma")
    return failed
