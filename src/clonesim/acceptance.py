"""Acceptance suite: every external claim checked at its stated tolerance.

Each criterion runs independently, reports a one-line verdict, and carries a
details dict of formatted figures.  Heavy artifacts (the default dynamic run,
the dark-state tracking sweep) are computed once per suite pass and shared;
the criterion that triggers the computation owns its wall time.

Some criteria also carry a wall-clock budget.  Its verdict is kept apart from
the physics verdict and details: ``suite_bytes`` serializes physics content
only, so two same-seed passes are byte-identical even when one of them
overruns a budget.  An overrun still fails ``clonesim verify``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass

import numpy as np

from . import adiabatic, cloner, optics, protocol
from .adiabatic import PulseSchedule, Side, SystemParams
from .cloner import InputQubit
from .protocol import fmt
from .qstate import Space, StateVector, inner

__all__ = [
    "CriterionResult",
    "SuiteResult",
    "run_all",
    "suite_dict",
    "criterion_dict",
    "suite_bytes",
    "reproducibility_criterion",
    "format_table",
]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool                  # physics verdict
    duration: float
    details: dict                 # str -> str, deterministic
    budget_s: float | None = None

    @property
    def within_budget(self) -> bool:
        return self.budget_s is None or self.duration < self.budget_s


@dataclass(frozen=True)
class SuiteResult:
    seed: int
    criteria: tuple
    passed: bool                  # every physics verdict

    @property
    def within_budget(self) -> bool:
        return all(c.within_budget for c in self.criteria)


def _analytic_report(q: InputQubit) -> protocol.CloneReport:
    return protocol.run_analytic(protocol.ProtocolConfig(input=q))


def _haar_inputs(seed: int, stream: int, n: int) -> list:
    rng = np.random.default_rng([seed, stream])
    return [cloner.haar_qubit(rng) for _ in range(n)]


# ---------------------------------------------------------------------------
# criterion bodies; each returns (passed, details)
# ---------------------------------------------------------------------------


def _literal_expected(q: InputQubit) -> StateVector:
    """The closed-form heralded state, written out independently.

    sqrt(2/3) [ (a|HH> + b/2 (|HV>+|VH>)) |gR>
                - (b|VV> + a/2 (|HV>+|VH>)) |gL> ]
    on photons out3, out4 (dual rail) and the remote atom.
    """
    space = optics.photon_space([optics.OUT_3, optics.OUT_4])
    full = Space(space.subsystems + protocol._ATOM_RIDERS)

    def lab(p3: str, p4: str, atom_lv: str):
        return full.label({protocol.ATOM_B: atom_lv, **{
            optics.mode_id(path, pol): "1" if pol == want else "0"
            for path, want in ((optics.OUT_3, p3), (optics.OUT_4, p4)) for pol in optics.POLS}})

    r = math.sqrt(2.0 / 3.0)
    a, b = q.a, q.b
    amps = {
        lab("H", "H", "gR"): r * a,
        lab("H", "V", "gR"): r * b / 2.0,
        lab("V", "H", "gR"): r * b / 2.0,
        lab("V", "V", "gL"): -r * b,
        lab("H", "V", "gL"): -r * a / 2.0,
        lab("V", "H", "gL"): -r * a / 2.0,
    }
    return StateVector(full, {k: v for k, v in amps.items() if v != 0})


def _crit_output_reproduction(seed: int, cache: dict):
    inputs = [InputQubit(1.0, 0.0)] + _haar_inputs(seed, 1, 5)
    worst = 1.0
    for q in inputs:
        rep = _analytic_report(q)
        ov = abs(inner(_literal_expected(q), rep.post_state))
        worst = min(worst, ov)
    passed = worst > 1.0 - 1e-12
    return passed, {"min_overlap": fmt(worst), "inputs": str(len(inputs))}


def _crit_fidelity_constants(seed: int, cache: dict):
    f1s, f2s, fts = [], [], []
    for q in _haar_inputs(seed, 2, 100):
        rep = _analytic_report(q)
        f1s.append(rep.clone_fidelity_1)
        f2s.append(rep.clone_fidelity_2)
        fts.append(rep.telenot_fidelity)
    f1s, f2s, fts = np.array(f1s), np.array(f2s), np.array(fts)
    dev_clone = max(np.abs(f1s - 5.0 / 6.0).max(), np.abs(f2s - 5.0 / 6.0).max())
    dev_tele = np.abs(fts - 2.0 / 3.0).max()
    var = max(f1s.var(), f2s.var(), fts.var())
    passed = dev_clone <= 1e-9 and dev_tele <= 1e-9 and var < 1e-20
    return passed, {
        "max_dev_clone": fmt(dev_clone),
        "max_dev_telenot": fmt(dev_tele),
        "variance": fmt(var),
        "samples": "100",
    }


def _crit_projector_equivalence(seed: int, cache: dict):
    # optics route as a 4x4 matrix on the (pol A, pol B) basis, order HH,HV,VH,VV
    pols = ("H", "V")
    basis = [(p, q) for p in pols for q in pols]
    mat_optics = np.zeros((4, 4), dtype=complex)
    tables_ok = True
    for j, (p, q) in enumerate(basis):
        out = optics.symmetric_project(optics.photon_pair(np.eye(4)[j]))
        got = {}
        for lab, amp in out.raw_amplitudes.items():
            p3 = "H" if lab.level(optics.mode_id(optics.OUT_3, "H")) == "1" else "V"
            p4 = "H" if lab.level(optics.mode_id(optics.OUT_4, "H")) == "1" else "V"
            got[(p3, p4)] = amp
            mat_optics[basis.index((p3, p4)), j] = amp
        expected = {(p, q): 1.0} if p == q else {("H", "V"): 0.5, ("V", "H"): 0.5}
        if got != expected:
            tables_ok = False

    # the three-qubit projector acts as P12 (x) I on the third qubit
    lifted = np.kron(mat_optics, np.eye(2))
    max_entry = np.abs(lifted - cloner.projector_p123()).max()
    passed = tables_ok and max_entry <= 1e-12
    return passed, {
        "max_entry_diff": fmt(max_entry),
        "basis_table_exact": str(tables_ok),
    }


def _crit_success_probability(seed: int, cache: dict):
    inputs = [InputQubit(1.0, 0.0), InputQubit(0.6, 0.8)] + _haar_inputs(seed, 3, 3)
    worst = 0.0
    rep = None
    for q in inputs:
        rep = _analytic_report(q)
        worst = max(worst, abs(rep.p_symmetric - 0.75))
    mc = protocol.detector_model(rep, eta=1.0, dark_rate=0.0, window=10.0,
                                 seed=seed, trials=200_000)
    sigma = mc.mc_sigma
    mc_dev = abs(mc.mc_p_detected - rep.p_operational)
    arm1 = rep.count_distribution.get((1, 1, 0, 0), 0.0)
    arm2 = rep.count_distribution.get((0, 0, 1, 1), 0.0)
    passed = worst <= 1e-12 and mc_dev <= 3.0 * sigma
    return passed, {
        "max_dev_p_symmetric": fmt(worst),
        "p_symmetric": fmt(rep.p_symmetric),
        "p_operational_coincidence": fmt(rep.p_operational),
        "per_arm": f"{fmt(arm1)} + {fmt(arm2)}",
        "mc_estimate": fmt(mc.mc_p_detected),
        "mc_sigma": fmt(sigma),
        "stated_reference_value": "0.25",
        "note": ("operational two-fold coincidence bookkeeping gives 3/8, not "
                 "the referenced 1/4; both figures reported, agreement not forced"),
    }


def _crit_detector_law(seed: int, cache: dict):
    base = _analytic_report(InputQubit(0.6, 0.8))
    ok = True
    ratios = []
    for eta in (0.0, 0.25, 0.5, 1.0):
        d = protocol.detector_model(base, eta, 0.0, 10.0, seed)
        if eta > 0.0:
            exact = (d.p_detected / d.p_operational) == eta * eta
        else:
            exact = d.p_detected == 0.0
        bits = (d.clone_fidelity_1 == base.clone_fidelity_1
                and d.clone_fidelity_2 == base.clone_fidelity_2
                and d.telenot_fidelity == base.telenot_fidelity)
        ratios.append(f"eta={eta:g}:{'exact' if exact else 'off'}")
        ok = ok and exact and bits
    return ok, {"law": "; ".join(ratios), "fidelities_bit_identical": str(ok)}


_TRACK_TIMES = (25.0, 50.0, 100.0, 200.0)


def _tracking_runs(cache: dict) -> list:
    if "tracking" not in cache:
        runs = []
        p = SystemParams(side=Side.ALICE, kappa=0.0, gamma=0.0, delta=0.0)
        for t_total in _TRACK_TIMES:
            omega = PulseSchedule(t_total=t_total)
            # short ramps are deliberate non-adiabatic probes; the input
            # (0.6, 0.8) splits both the final and the dark state alike, so
            # their overlap is the block's
            rep = adiabatic.evolve((0.6, 0.8), p, omega, dt=t_total / 1000.0)
            dark, final = adiabatic.dark_state(p, omega, t_total), rep.final_state
            overlap = abs(np.vdot(dark, final)) ** 2 / np.vdot(final, final).real
            runs.append((t_total, overlap, rep.excited_pop_max, rep.closure_error))
        cache["tracking"] = runs
    return cache["tracking"]


def _crit_dark_state_tracking(seed: int, cache: dict):
    runs = _tracking_runs(cache)
    overlaps = [r[1] for r in runs]
    monotone = all(overlaps[i + 1] >= overlaps[i] - 1e-6 for i in range(len(runs) - 1))
    final_overlap = overlaps[-1]
    exc = runs[-1][2]
    passed = monotone and final_overlap > 0.999 and exc < 1e-2
    return passed, {
        "overlaps": " ".join(fmt(v) for v in overlaps),
        "t_totals": " ".join(fmt(r[0]) for r in runs),
        "monotone": str(monotone),
        "final_overlap": fmt(final_overlap),
        "excited_pop_max": fmt(exc),
    }


def _dynamic_report(seed: int, cache: dict) -> protocol.CloneReport:
    if "dynamic" not in cache:
        cfg = protocol.ProtocolConfig(
            input=InputQubit(0.6, 0.8), mode=protocol.Mode.DYNAMIC, seed=seed)
        cache["dynamic"] = protocol.run_dynamic(cfg)
    return cache["dynamic"]


def _crit_pulse_identity(seed: int, cache: dict):
    rep = _dynamic_report(seed, cache)
    details = {}
    ok = True
    for name, dyn in zip(("alice", "bob"), rep.dynamics_diags):
        analytic = adiabatic.pulse_shape_analytic(dyn.params, dyn.omega, dyn.t_grid)
        ov = adiabatic.pulse_overlap(dyn.t_grid, dyn.pulse_shape,
                                     dyn.t_grid, analytic)
        lhs, rhs = adiabatic.emission_identity_check(
            dyn.params, dyn.omega, np.linspace(0.0, dyn.omega.t_total, 8001))
        details[f"{name}_numeric_vs_analytic"] = fmt(ov)
        details[f"{name}_norm_identity_diff"] = fmt(abs(lhs - rhs))
        ok = ok and ov > 0.995 and abs(lhs - rhs) <= 1e-6
    return ok, details


def _crit_interference_sanity(seed: int, cache: dict):
    same = optics.photon_pair([[1.0, 0.0], [0.0, 0.0]])
    mixed = optics.beamsplitter(same, optics.PATH_A, optics.PATH_B)
    cross = 0.0
    for lab, amp in mixed.amps.items():
        n_a = sum(int(lab.level(optics.mode_id(optics.PATH_A, pol))) for pol in optics.POLS)
        n_b = sum(int(lab.level(optics.mode_id(optics.PATH_B, pol))) for pol in optics.POLS)
        if n_a == 1 and n_b == 1:
            cross = max(cross, abs(amp))
    singlet_out = optics.symmetric_project(optics.polarization_singlet())
    singlet_coinc = optics.detection_bookkeeping(optics.polarization_singlet()).p_coincidence
    passed = cross < 1e-12 and singlet_out.probability < 1e-24
    return passed, {
        "hom_cross_port_amp": fmt(cross),
        "singlet_projection_prob": fmt(singlet_out.probability),
        "singlet_coincidence_prob": fmt(singlet_coinc),
    }


def _crit_probability_closure(seed: int, cache: dict):
    worst = 0.0
    sources = []
    for t_total, _, _, closure in _tracking_runs(cache):
        worst = max(worst, closure)
        sources.append(f"tracking_t{t_total:g}")
    rep = _dynamic_report(seed, cache)
    for name, dyn in zip(("alice", "bob"), rep.dynamics_diags):
        worst = max(worst, dyn.closure_error)
        sources.append(f"protocol_{name}")
    passed = worst <= 1e-8
    return passed, {"max_closure_error": fmt(worst), "runs": str(len(sources))}


_CRITERIA = (
    ("closed-form-output-reproduction", _crit_output_reproduction, 1.0),
    ("optimal-fidelity-constants", _crit_fidelity_constants, 5.0),
    ("projector-equivalence", _crit_projector_equivalence, None),
    ("success-probability-accounting", _crit_success_probability, None),
    ("detector-efficiency-law", _crit_detector_law, None),
    ("dark-state-tracking", _crit_dark_state_tracking, 30.0),
    ("pulse-shape-identity", _crit_pulse_identity, None),
    ("interference-sanity", _crit_interference_sanity, None),
    ("probability-closure", _crit_probability_closure, None),
)


def run_all(seed: int = 0) -> SuiteResult:
    """Run criteria 1-9; reproducibility (10) is checked by running twice."""
    cache: dict = {}
    results = []
    for name, fn, budget in _CRITERIA:
        start = time.perf_counter()
        passed, details = fn(seed, cache)
        duration = time.perf_counter() - start
        results.append(CriterionResult(name, bool(passed), duration, details, budget))
    return SuiteResult(seed=seed, criteria=tuple(results),
                       passed=all(r.passed for r in results))


def criterion_dict(c: CriterionResult) -> dict:
    """Physics content of one criterion: name, verdict, details."""
    return {"name": c.name, "passed": c.passed,
            "details": dict(sorted(c.details.items()))}


def _budget_dict(c: CriterionResult) -> dict:
    if c.budget_s is None:
        return {}
    return {"runtime_budget_s": fmt(c.budget_s), "within_budget": c.within_budget}


def suite_dict(suite: SuiteResult) -> dict:
    """Serializable form: physics content plus each budget verdict, no wall times."""
    return {
        "seed": suite.seed,
        "passed": suite.passed,
        "within_budget": suite.within_budget,
        "criteria": [{**criterion_dict(c), **_budget_dict(c)} for c in suite.criteria],
    }


def suite_bytes(suite: SuiteResult) -> bytes:
    """Physics content only, so wall-clock overruns cannot change it."""
    doc = {"seed": suite.seed, "passed": suite.passed,
           "criteria": [criterion_dict(c) for c in suite.criteria]}
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def reproducibility_criterion(b1: bytes, b2: bytes) -> CriterionResult:
    """Criterion 10: two same-seed passes serialize byte-identically."""
    same = b1 == b2
    return CriterionResult(
        name="reproducibility",
        passed=same,
        duration=0.0,
        details={"bytes": str(len(b1)), "byte_identical": str(same)},
    )


def format_table(rows) -> str:
    lines = []
    width = max(len(r.name) for r in rows) + 2
    for i, r in enumerate(rows, start=1):
        verdict = "PASS" if r.passed and r.within_budget else "FAIL"
        over = "" if r.within_budget else f" (over its {fmt(r.budget_s)}s budget)"
        key_detail = next(iter(r.details.items()), ("", ""))
        lines.append(f"{verdict}  {i:>2}  {r.name:<{width}}  "
                     f"{r.duration:7.2f}s  {key_detail[0]}={key_detail[1]}{over}")
    overall = all(r.passed and r.within_budget for r in rows)
    lines.append("overall: " + ("PASS" if overall else "FAIL"))
    return "\n".join(lines)
