"""End-to-end protocol runs: prepare, evolve, interfere, post-select, score.

Two execution modes share one scoring path:

- analytic: the perfect-passage limit.  The source photon carries the qubit
  exactly (a|H> + b|V>), the remote node contributes the entangled pair
  (|gR>|H> - |gL>|V>)/sqrt(2), and both photons are perfectly
  indistinguishable.
- dynamic: both nodes are integrated with ``adiabatic.evolve``, which returns
  each emitted photon as its node's (L, R) split times an envelope that does
  not depend on the split.  So the pair is built from the same splits as the
  analytic one; the passages add only the emission probabilities, the
  temporal overlap of the two envelopes (the complex visibility factor of the
  coincidence bookkeeping) and diagnostics.

Either way the two photons' circular amplitudes become one array: the
waveplates are written into the product x[pol_A, pol_B, atomB]
(:func:`_pair_x`), which ``optics.photon_pair`` scatters once into the
joint ket (:func:`assemble_joint`) that both post-selection routes take and
read in exchange form.  Scoring stays on arrays too: :func:`_score` takes
the three one-qubit reductions of the heralded 8x8 matrix in one gather
from a fixed table of positions; labels appear only in the report (the
non-zero entries of the heralded pure state).

Detector imperfections (efficiency eta, dark counts) transform a finished
report: the success probability picks up the eta^2 factor plus a
false-coincidence term, and dark-count heralds dilute the heralded state
toward the maximally mixed one.  A seeded Monte Carlo over detector click
patterns cross-checks the closed-form detection probability.

Encoding used throughout: atomic gL <-> logical 0 <-> photonic H, and
gR <-> 1 <-> V.  The clones are scored against a|H> + b|V>; the remote atom
against the flipped target b*|gL> - a*|gR>.
"""

from __future__ import annotations

import functools
import json
import math
import operator
from dataclasses import dataclass, field, fields
from enum import Enum
from itertools import product

import numpy as np

from .adiabatic import (
    FANOUT,
    MAX_STEPS,
    DynamicsReport,
    PulseSchedule,
    Side,
    SystemParams,
    evolve,
    pulse_overlap_complex,
    step_count,
)
from .cloner import InputQubit
from .optics import POLS, detection_bookkeeping, photon_pair, symmetric_project
from .qstate import (
    DensityMatrix,
    Space,
    SpaceMismatchError,
    StateVector,
    _fidelity,
    fidelity_pure,  # noqa: F401  perfbench traces calls made through protocol.fidelity_pure
    partial_trace,  # noqa: F401  perfbench traces calls made through protocol.partial_trace
    tensor,  # noqa: F401  perfbench traces calls made through protocol.tensor
)

__all__ = [
    "Mode",
    "DetectorParams",
    "NodeConfig",
    "ProtocolConfig",
    "CloneReport",
    "ATOM_B",
    "MATCHED_DRIVE_RATIO",
    "MAX_MC_TRIALS",
    "default_node",
    "assemble_joint",
    "run_analytic",
    "run_dynamic",
    "run",
    "detector_model",
    "fmt",
    "report_to_dict",
    "report_json",
    "RESULT_FIELDS",
    "SUMMARY_COLUMNS",
    "summary_csv",
    "pulse_csv",
]

ATOM_B = "atomB"

# remote drive scaled by sqrt(2) matches the two mixing angles,
# cos(th_B)(Omega sqrt(2)) = cos(th_A)(Omega), so the emitted envelopes agree
MATCHED_DRIVE_RATIO = math.sqrt(2.0)
# the remote photon's (L, R) channel amplitudes: e0 decays evenly through its
# cavity couplings, one per polarization
_REMOTE_SPLIT = (1.0 / math.sqrt(FANOUT[Side.BOB]),) * 2

EMISSION_DIAG_THRESHOLD = 0.99
# peak excited population above which a passage is noted as too fast
EXCITED_POP_WARN = 1e-2

# The detection Monte Carlo draws its herald count in one binomial step, so
# neither its time nor its memory grows with the trial count.  The cap keeps
# numpy's binomial sampler where it follows its law, so that mc_sigma is the
# estimate's spread: at 2**56 its tail counts match the law's, while at
# 2**60 and 2**62 draws land beyond 6 sigma thousands of times too often.
MAX_MC_TRIALS = 2 ** 56

# diagnostic of a run whose heralded branch has probability 0
ZERO_HERALD_NOTE = ("zero_herald: p_operational = 0; clone and tele-NOT "
                    "fidelities undefined")


class Mode(str, Enum):
    ANALYTIC = "analytic"
    DYNAMIC = "dynamic"


def _check_detector(eta: float, dark_rate: float, window: float) -> None:
    """Ranges of the detector model, for DetectorParams and detector_model.

    Each check is written so that nan fails it.
    """
    if not (0.0 <= eta <= 1.0):
        raise ValueError("eta must lie in [0, 1]")
    if not dark_rate >= 0:
        raise ValueError("dark_rate must be non-negative")
    if not window > 0:
        raise ValueError("window must be positive")


@dataclass(frozen=True)
class DetectorParams:
    """Single-photon detector model shared by all four detectors."""

    eta: float = 1.0
    dark_rate: float = 0.0
    window: float = 10.0

    def __post_init__(self):
        _check_detector(self.eta, self.dark_rate, self.window)


@functools.lru_cache(maxsize=8)
def _tunable(kind) -> tuple[str, ...]:
    return tuple(f.name for f in fields(kind) if f.name != "side")


@dataclass(frozen=True)
class NodeConfig:
    """One atom-cavity node: physical rates plus its drive schedule."""

    params: SystemParams
    omega: PulseSchedule

    def values(self) -> dict:
        """Every tunable rate and schedule field by name, in declaration order."""
        return {name: getattr(part, name)
                for part in (self.params, self.omega) for name in _tunable(type(part))}

    @classmethod
    def from_values(cls, side: Side, values: dict) -> "NodeConfig":
        """Inverse of :meth:`values` for the given side."""
        return cls(SystemParams(side=side, **{k: values[k] for k in _tunable(SystemParams)}),
                   PulseSchedule(**{k: values[k] for k in _tunable(PulseSchedule)}))


def default_node(side: Side) -> NodeConfig:
    """Default node; bob's drive is MATCHED_DRIVE_RATIO x alice's."""
    omega = PulseSchedule()
    if side is Side.BOB:
        omega = PulseSchedule(omega_max=omega.omega_max * MATCHED_DRIVE_RATIO)
    return NodeConfig(SystemParams(side=side), omega)


@dataclass(frozen=True)
class ProtocolConfig:
    input: InputQubit
    alice: NodeConfig = field(default_factory=lambda: default_node(Side.ALICE))
    bob: NodeConfig = field(default_factory=lambda: default_node(Side.BOB))
    mode: Mode = Mode.ANALYTIC
    detector: DetectorParams = field(default_factory=DetectorParams)
    seed: int = 0
    dt: float = 0.05
    emission_floor: float = 0.5
    mc_trials: int = 0   # detection Monte Carlo samples; 0 = closed form only

    def __post_init__(self):
        object.__setattr__(self, "mode", Mode(self.mode))
        if self.alice.params.side is not Side.ALICE:
            raise ValueError("alice node configured with the wrong side")
        if self.bob.params.side is not Side.BOB:
            raise ValueError("bob node configured with the wrong side")
        if not self.dt > 0:     # also refuses nan
            raise ValueError("dt must be positive")
        if not (0.0 <= self.emission_floor <= 1.0):
            raise ValueError("emission_floor must lie in [0, 1]")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not 0 <= self.mc_trials <= MAX_MC_TRIALS:
            raise ValueError(f"mc_trials must lie in [0, {MAX_MC_TRIALS}] (the trial budget)")
        if self.mode is Mode.DYNAMIC:
            for name, node in (("alice", self.alice), ("bob", self.bob)):
                n = step_count(node.params, node.omega, self.dt)
                if n > MAX_STEPS:
                    raise ValueError(f"{name} passage needs {n:.6g} RK4 steps, above "
                                     f"the budget of {MAX_STEPS}")


@dataclass(frozen=True)
class CloneReport:
    """Scores and bookkeeping of one protocol run.

    ``post_state`` is the pure heralded state of the fully interfering
    branch (photons out3, out4 in dual-rail encoding plus the remote atom);
    ``rho_post`` is the actual heralded density matrix (polarization qubits
    ph3, ph4 plus the atom) including partial-visibility and, after
    ``detector_model`` with dark counts, false-herald dilution.  When the
    heralded branch has probability 0 (``p_operational == 0``), the three
    fidelities are nan and ``diagnostics`` carries ``ZERO_HERALD_NOTE``; a
    dark_rate * window above 0.2 adds the note that it is not small.
    When a node emitted nothing there is no photon pair at all:
    ``post_state`` and ``rho_post`` are None, ``p_symmetric`` is nan and
    ``count_distribution`` is empty.
    """

    config: ProtocolConfig
    post_state: StateVector | None
    rho_post: DensityMatrix | None
    clone_fidelity_1: float
    clone_fidelity_2: float
    telenot_fidelity: float
    p_symmetric: float
    p_operational: float
    p_detected: float
    overlap_visibility: float
    emission_prob_alice: float
    emission_prob_bob: float
    count_distribution: dict
    false_herald_fraction: float = 0.0
    mc_p_detected: float | None = None
    mc_trials: int = 0
    mc_sigma: float = 0.0
    dynamics_diags: tuple[DynamicsReport, DynamicsReport] | None = None
    diagnostics: tuple[str, ...] = ()

    @classmethod
    def _from_fields(cls, *, config, post_state, rho_post, clone_fidelity_1,
                     clone_fidelity_2, telenot_fidelity, p_symmetric, p_operational,
                     p_detected, overlap_visibility, emission_prob_alice, emission_prob_bob,
                     count_distribution, false_herald_fraction, mc_p_detected, mc_trials,
                     mc_sigma, dynamics_diags, diagnostics) -> "CloneReport":
        """The report of these fields, every one given, set in one ``__dict__``
        update rather than the frozen ``__init__``'s one ``object.__setattr__``
        per field (as ``DensityMatrix.from_array`` builds a matrix)."""
        report = object.__new__(cls)
        report.__dict__.update(
            config=config, post_state=post_state, rho_post=rho_post,
            clone_fidelity_1=clone_fidelity_1, clone_fidelity_2=clone_fidelity_2,
            telenot_fidelity=telenot_fidelity, p_symmetric=p_symmetric,
            p_operational=p_operational, p_detected=p_detected,
            overlap_visibility=overlap_visibility, emission_prob_alice=emission_prob_alice,
            emission_prob_bob=emission_prob_bob, count_distribution=count_distribution,
            false_herald_fraction=false_herald_fraction, mc_p_detected=mc_p_detected,
            mc_trials=mc_trials, mc_sigma=mc_sigma, dynamics_diags=dynamics_diags,
            diagnostics=diagnostics)
        return report


# ---------------------------------------------------------------------------
# state assembly and scoring
# ---------------------------------------------------------------------------


# the remote atom, the one rider of the photon pair
_ATOM_RIDERS = ((ATOM_B, ("gL", "gR")),)


def _pair_x(alpha: tuple[complex, complex], beta: tuple[complex, complex]) -> np.ndarray:
    """The pair array x[pol_A, pol_B, atomB] of :func:`assemble_joint`."""
    # times -1.0 as the plate multiplies, so a real beta_R keeps a +0.0
    # imaginary part; scalar products, as numpy's array multiply can round a
    # complex product differently in the last bit
    b_h, b_v = complex(beta[0]), -1.0 * complex(beta[1])
    return np.array([[[0.0, a * b_h], [a * b_v, 0.0]]      # [p][q][gL, gR]
                     for a in map(complex, alpha)])


def assemble_joint(alpha: tuple[complex, complex],
                   beta: tuple[complex, complex]) -> StateVector:
    """Photon pair + remote atom state entering the interference stage.

    ``alpha`` are the source photon's circular amplitudes (L, R); ``beta``
    the remote node's channel amplitudes, where the L photon is tied to atom
    gR and the R photon to gL.  Both photons pass their quarter-wave plate
    (L -> H, R -> V); the remote path also crosses the 0-degree half-wave
    plate, whose V sign flip produces the pair's relative minus.  So the
    pair array is x[p, q, atom] = alpha_p B[q, atom] with B[H, gR] = beta_L
    and B[V, gL] = -beta_R.
    """
    return photon_pair(_pair_x(alpha, beta), _ATOM_RIDERS)


# the heralded state's space, whose 8x8 matrix _score reads with row and
# column index 4 atomB + 2 ph3 + ph4
_SCORED_SPACE = Space(_ATOM_RIDERS + (("ph3", POLS), ("ph4", POLS)))


def _reduction_positions() -> np.ndarray:
    """(4, 3, 2, 2) flat positions in the heralded 8x8 matrix.

    Entry [i, j] of the reduction to ph3, ph4 or atomB (axis 1) is the sum
    of four entries, one per value of the two traced qubits; axis 0 lists
    them in the order einsum adds them, the lower traced qubit slowest.
    """
    pos = np.empty((4, 3, 2, 2), dtype=np.intp)
    for slot, kept in enumerate((1, 2, 0)):
        for n, traced in enumerate(product((0, 1), repeat=2)):
            for i, j in product((0, 1), repeat=2):
                row, col = list(traced), list(traced)
                row.insert(kept, i)
                col.insert(kept, j)
                pos[n, slot, i, j] = np.ravel_multi_index(row + col, (2,) * 6)
    pos.flags.writeable = False
    return pos


_REDUCTIONS = _reduction_positions()


def _reductions(matrix: np.ndarray) -> np.ndarray:
    """The (3, 2, 2) one-qubit reductions of the heralded 8x8 matrix: ph3, ph4, atomB.

    One gather of the four terms of every entry and one add-reduce over
    them, from 0.0 and in order, so each entry is the einsum's bit for bit
    (signed zeros included).
    """
    return np.add.reduce(matrix.take(_REDUCTIONS), axis=0, initial=0.0)


def _score(rho: DensityMatrix, q: InputQubit) -> tuple[float, float, float]:
    """Both clones against a|H> + b|V>, the remote atom against b*|gL> - a*|gR>.

    Each one-qubit reduction of :func:`_reductions` is scored by
    ``qstate._fidelity`` against the target's two amplitudes.  The herald
    adds each exchange pair as a + b, so the two clones' reductions agree
    byte for byte and clone 2 reuses clone 1's score (the same pure kernel
    on the same arguments); a matrix whose reductions differ scores each.
    """
    if rho.space != _SCORED_SPACE:
        raise SpaceMismatchError(f"heralded state on {rho.space.ids}, expected "
                                 f"{_SCORED_SPACE.ids}")
    r3, r4, r_atom = _reductions(rho.matrix)
    a, b = q.a, q.b
    f1 = _fidelity(r3, a, b)
    f2 = f1 if r3.tobytes() == r4.tobytes() else _fidelity(r4, a, b)
    ft = _fidelity(r_atom, b.conjugate(), -a.conjugate())
    return f1, f2, ft


def _finish(cfg: ProtocolConfig, x: np.ndarray | None, overlap_c: complex,
            emit_a: float, emit_b: float,
            diags: tuple[DynamicsReport, DynamicsReport] | None,
            notes: tuple[str, ...]) -> CloneReport:
    """Common tail: project, herald, score, apply the configured detectors.

    ``x`` is the pair array x[pol_A, pol_B, atomB] of :func:`_pair_x`,
    scattered once into the ket both post-selection routes take; it is None
    when a node emitted no photon: nothing enters the interference stage, so
    nothing heralds and the heralded state is undefined.
    """
    if x is None:
        post, rho, p_sym, p_op, dist = None, None, math.nan, 0.0, {}
        visibility = abs(complex(overlap_c)) ** 2
    else:
        pair = photon_pair(x, _ATOM_RIDERS)
        sym = symmetric_project(pair)
        detection = detection_bookkeeping(pair, overlap_c)
        if detection.rho_conditional is None:
            raise RuntimeError("no coincidence support in the assembled state")
        post, rho = sym.projected_state, detection.rho_conditional
        # the branch probability of the normalized pair, in the ratio sigma/n
        # the pattern probabilities use (x may be sub-normalized)
        p_sym = 0.5 * (1.0 + sym.sigma / sym.norm_sq)
        p_op = emit_a * emit_b * detection.p_coincidence
        dist, visibility = dict(detection.count_distribution), detection.visibility

    if p_op == 0.0:
        # nothing heralds: the scored state would come from an arbitrary
        # channel vector, so the fidelities are undefined
        f1 = f2 = ft = math.nan
        notes = notes + (ZERO_HERALD_NOTE,)
    else:
        f1, f2, ft = _score(rho, cfg.input)

    report = CloneReport._from_fields(
        config=cfg,
        post_state=post,
        rho_post=rho,
        clone_fidelity_1=f1,
        clone_fidelity_2=f2,
        telenot_fidelity=ft,
        p_symmetric=p_sym,
        p_operational=p_op,
        p_detected=p_op,
        overlap_visibility=visibility,
        emission_prob_alice=emit_a,
        emission_prob_bob=emit_b,
        count_distribution=dist,
        false_herald_fraction=0.0,
        mc_p_detected=None,
        mc_trials=0,
        mc_sigma=0.0,
        dynamics_diags=diags,
        diagnostics=notes,
    )
    return detector_model(report, cfg.detector.eta, cfg.detector.dark_rate,
                          cfg.detector.window, cfg.seed, trials=cfg.mc_trials)


def run_analytic(cfg: ProtocolConfig) -> CloneReport:
    """Perfect-passage protocol run; all constants exact."""
    if cfg.mode is not Mode.ANALYTIC:
        raise ValueError("run_analytic requires mode=analytic")
    q = cfg.input
    return _finish(cfg, _pair_x((q.a, q.b), _REMOTE_SPLIT), 1.0, 1.0, 1.0, None, ())


def run_dynamic(cfg: ProtocolConfig) -> CloneReport:
    """Integrated-passage protocol run.

    Both nodes evolve under their schedules; the heralded state is scored
    with the actual envelope overlap as visibility.  Emission probability
    below 0.99 is recorded as a diagnostic; below ``emission_floor`` the note
    flags the run protocol-degenerate (a note, not an error).
    """
    if cfg.mode is not Mode.DYNAMIC:
        raise ValueError("run_dynamic requires mode=dynamic")
    q = cfg.input
    rep_a = evolve((q.a, q.b), cfg.alice.params, cfg.alice.omega, cfg.dt)
    rep_b = evolve(_REMOTE_SPLIT, cfg.bob.params, cfg.bob.omega, cfg.dt)

    notes = []
    for name, rep in (("alice", rep_a), ("bob", rep_b)):
        if rep.emission_prob < cfg.emission_floor:
            notes.append(f"{name} emission {rep.emission_prob:.6g} below floor "
                         f"{cfg.emission_floor:g}: protocol degenerate")
        elif rep.emission_prob < EMISSION_DIAG_THRESHOLD:
            notes.append(f"{name} emission probability {rep.emission_prob:.6g} "
                         f"< {EMISSION_DIAG_THRESHOLD}")
        if rep.excited_pop_max > EXCITED_POP_WARN:
            notes.append(f"{name} excited population peaked at "
                         f"{rep.excited_pop_max:.3e}")

    c = pulse_overlap_complex(rep_a.t_grid, rep_a.pulse_shape,
                              rep_b.t_grid, rep_b.pulse_shape)
    x = None     # a node that emitted nothing leaves no photon pair
    if rep_a.pulse_shape.any() and rep_b.pulse_shape.any():
        x = _pair_x((q.a, q.b), _REMOTE_SPLIT)     # the splits, as run_analytic pairs them
    return _finish(cfg, x, c, rep_a.emission_prob, rep_b.emission_prob,
                   (rep_a, rep_b), tuple(notes))


def run(cfg: ProtocolConfig) -> CloneReport:
    if cfg.mode is Mode.ANALYTIC:
        return run_analytic(cfg)
    return run_dynamic(cfg)


# ---------------------------------------------------------------------------
# detector model
# ---------------------------------------------------------------------------

_SINGLE_PATTERNS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_COINC_PATTERNS = ((0, 0, 1, 1), (1, 1, 0, 0))     # sorted, as the sums take them
# the 16 click configurations of the four detectors (row k: detector i clicks
# when bit i of k is set) and the ones that herald: both detectors of an arm
_CLICKS = (np.arange(16)[:, None] >> np.arange(4)) & 1 == 1
_HERALDS = (_CLICKS[:, 0] & _CLICKS[:, 1]) | (_CLICKS[:, 2] & _CLICKS[:, 3])
# the 15 click-count patterns of at most two photons on the four detectors,
# in sorted order, and each one's position in that table
_PATTERNS = tuple(sorted(pat for pat in product(range(3), repeat=4) if sum(pat) <= 2))
_PATTERN_INDEX = {pat: k for k, pat in enumerate(_PATTERNS)}
# per pattern, the 7 heralding configurations x 4 detectors as indices into
# [c0, c1, c2, 1 - c0, 1 - c1, 1 - c2], c_n a detector's click probability
# facing n photons: its count if it clicks, the count + 3 if it does not
_HERALD_TERMS = np.array(_PATTERNS)[:, None, :] + 3 * ~_CLICKS[_HERALDS]
_HERALD_TERMS.flags.writeable = False


def _branches(report: CloneReport) -> list[tuple[float, dict]]:
    """(weight, pattern distribution) per emission outcome.

    A pattern of the report's distribution outside the table of at most two
    photons raises ``ValueError``: two photons enter the network.
    """
    pa, pb = report.emission_prob_alice, report.emission_prob_bob
    if not _PATTERN_INDEX.keys() >= report.count_distribution.keys():
        pat = next(p for p in report.count_distribution if p not in _PATTERN_INDEX)
        raise ValueError(f"count pattern {pat!r} is not one of at most two photons on "
                         "four detectors: two photons enter the network")
    out = [(pa * pb, report.count_distribution)]
    w_one = pa * (1.0 - pb) + (1.0 - pa) * pb
    if w_one > 0:
        # one photon entering the network spreads evenly over the detectors
        out.append((w_one, {pat: 0.25 for pat in _SINGLE_PATTERNS}))
    w_none = (1.0 - pa) * (1.0 - pb)
    if w_none > 0:
        out.append((w_none, {(0, 0, 0, 0): 1.0}))
    return out


def _click_probabilities(eta: float, p_dark: float) -> list[float]:
    """Click probability of a detector facing 0, 1 or 2 photons: it clicks
    unless all n and the dark count miss.  Two photons enter the network, so
    no detector faces more."""
    return [1.0 - (1.0 - eta) ** n * (1.0 - p_dark) for n in range(3)]


def _closed_form(branches: list, eta: float, p_dark: float) -> tuple[float, float]:
    """(herald probability, its true-coincidence part) over the branches.

    An arm heralds when both its detectors click.  Both sums run over each
    branch's patterns in sorted order, so they do not depend on insertion
    order.  The herald probability is capped at 1: branch weights that sum
    to 1 only up to rounding can carry a certain herald (every detector sure
    to click) an ulp above it.
    """
    click = _click_probabilities(eta, p_dark)
    p_detected = p_true = 0.0
    for weight, dist in branches:
        for pat in sorted(dist):
            n1, n2, n3, n4 = pat
            c3, c4 = click[n3], click[n4]
            both = click[n1] * click[n2]
            p_detected += weight * dist[pat] * (both + c3 * c4 - both * c3 * c4)
        for pat in _COINC_PATTERNS:
            if pat in dist:
                p_true += weight * dist[pat] * eta * eta
    return min(p_detected, 1.0), p_true


@functools.lru_cache(maxsize=8)
def _maximally_mixed(d: int) -> np.ndarray:
    """I/d, the state dark-count heralds dilute toward; shared and read-only."""
    mixed = np.eye(d) / d
    mixed.flags.writeable = False
    return mixed


def detector_model(report: CloneReport, eta: float, dark_rate: float,
                   window: float, seed: int, trials: int = 0) -> CloneReport:
    """Fold detector efficiency and dark counts into a finished report.

    With dark_rate = 0 the fidelity fields pass through untouched and
    p_detected = p_operational * eta^2 exactly.  With dark counts, the herald
    probability gains false coincidences (computed in closed form over the
    click patterns), and the heralded state is diluted toward the maximally
    mixed polarization state by the false-herald fraction.  ``trials`` > 0
    additionally draws a seeded Monte Carlo herald count over the fixed
    table of the 15 click patterns of at most two photons (one binomial
    draw) and records its estimate beside the closed form.

    The input must be an ideal-detector report (what run_analytic/run_dynamic
    produce under the default DetectorParams); applying dark-count dilution
    twice would compound it.  A trial count outside [0, ``MAX_MC_TRIALS``]
    (2**56, where numpy's binomial sampler still follows its law), a seed
    that is not a non-negative integer and parameters outside
    DetectorParams' ranges raise ``ValueError`` before anything is computed;
    so does, when dark counts or trials need the click patterns, a count
    pattern outside that table.  A dark_rate * window above 0.2 appends a
    note after any earlier one.
    """
    if not 0 <= trials <= MAX_MC_TRIALS:
        raise ValueError(f"{trials} Monte Carlo trials lie outside the budget [0, {MAX_MC_TRIALS}]")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    _check_detector(eta, dark_rate, window)
    p_dark = 1.0 - math.exp(-dark_rate * window)      # per-window dark-click probability
    # the emission branches feed only the dark-count closed form and the Monte Carlo
    branches = _branches(report) if dark_rate != 0.0 or trials > 0 else None

    rho, f1, f2, ft = (report.rho_post, report.clone_fidelity_1, report.clone_fidelity_2,
                       report.telenot_fidelity)
    if dark_rate == 0.0:
        # exact eta^2 law; fidelities and state bit-identical by construction
        p_detected, w_false = report.p_operational * eta * eta, 0.0
    else:
        p_detected, p_true = _closed_form(branches, eta, p_dark)
        # max: with dark_rate below ~1e-17, p_true can round an ulp above p_detected
        w_false = max(0.0, 1.0 - p_true / p_detected) if p_detected > 0 else 0.0
        if rho is not None:
            mixed = _maximally_mixed(rho.space.dim) * w_false
            rho = DensityMatrix.from_array(rho.space, rho.matrix * (1.0 - w_false) + mixed)
        f1 = (1.0 - w_false) * f1 + w_false * 0.5
        f2 = (1.0 - w_false) * f2 + w_false * 0.5
        ft = (1.0 - w_false) * ft + w_false * 0.5

    mc_p, mc_trials, mc_sigma = report.mc_p_detected, report.mc_trials, report.mc_sigma
    if trials > 0:
        mc_p, mc_trials = _detection_mc(branches, eta, p_dark, seed, trials), trials
        mc_sigma = math.sqrt(max(p_detected * (1.0 - p_detected), 0.0) / trials)
    notes = report.diagnostics
    if dark_rate * window > 0.2:
        notes = notes + (f"dark_rate*window = {dark_rate * window:.3g} is not small; "
                         "the per-window dark-click model assumes << 1",)
    return CloneReport._from_fields(**{
        **vars(report), "rho_post": rho, "clone_fidelity_1": f1, "clone_fidelity_2": f2,
        "telenot_fidelity": ft, "p_detected": p_detected, "false_herald_fraction": w_false,
        "mc_p_detected": mc_p, "mc_trials": mc_trials, "mc_sigma": mc_sigma,
        "diagnostics": notes})


def _herald_probability(branches: list, eta: float, p_dark: float) -> float:
    """A shot's herald probability by the click predicate, never the closed form.

    A shot picks a click pattern, then one of the 16 click configurations of
    the four detectors, and heralds when both detectors of an arm click.
    Each branch's weight * q accumulates at its pattern's position in the
    fixed 15-pattern table, so the mixture's order is the table's, not the
    distributions' insertion order.  Each pattern's herald probability is one
    gather of its 7 heralding configurations' click factors, a product over
    the detectors and a sum over the configurations in order; the mixture
    and its normalisation are exact sums (``math.fsum``), and p is capped at
    1 (a certain herald can round an ulp above it).
    """
    probs = [0.0] * len(_PATTERNS)
    for weight, dist in branches:
        for pat, q in dist.items():
            probs[_PATTERN_INDEX[pat]] += weight * q
    total = math.fsum(probs)
    if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-9):
        raise RuntimeError(f"branch probabilities sum to {total:.12g}, not 1")
    click = _click_probabilities(eta, p_dark)
    factors = np.array(click + [1.0 - c for c in click])
    herald = np.add.reduce(np.multiply.reduce(factors[_HERALD_TERMS], axis=2), axis=1,
                           initial=0.0)
    return min(math.fsum(map(operator.mul, probs, herald.tolist())) / total, 1.0)


def _detection_mc(branches: list, eta: float, p_dark: float,
                  seed: int, trials: int) -> float:
    """Monte Carlo herald frequency over emission branches and click patterns.

    The herald count of ``trials`` shots is Binomial(trials, p), p the
    patterns' mixture of :func:`_herald_probability` (Devroye 1986, ch. XI),
    drawn once at any ``trials``; a seeded estimate depends only on the
    distributions, not on their insertion order.
    """
    p = _herald_probability(branches, eta, p_dark)
    return int(np.random.Generator(np.random.PCG64(seed)).binomial(trials, p)) / trials


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

# scalar CloneReport fields, in the order every output lists them
RESULT_FIELDS = (
    "clone_fidelity_1", "clone_fidelity_2", "telenot_fidelity",
    "p_symmetric", "p_operational", "p_detected",
    "overlap_visibility", "emission_prob_alice", "emission_prob_bob",
    "false_herald_fraction",
)
_DETECTOR_FIELDS = tuple(f.name for f in fields(DetectorParams))

SUMMARY_COLUMNS = (("mode", "a_re", "a_im", "b_re", "b_im") + RESULT_FIELDS
                   + _DETECTOR_FIELDS + ("seed",))


def fmt(x) -> str:
    """A number as printed everywhere: 12 significant digits."""
    return format(float(x), ".12g")


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _null_if_nan(x):
    """An undefined (nan) result serializes as JSON null."""
    return None if math.isnan(x) else x


def report_to_dict(report: CloneReport) -> dict:
    """Plain nested dict of one report; deterministic, no timestamps."""
    cfg = report.config
    doc = {
        "config": {
            "mode": cfg.mode.value,
            "seed": cfg.seed,
            "input": {"a": _complex_pair(cfg.input.a), "b": _complex_pair(cfg.input.b)},
            "alice": {"side": "alice", **cfg.alice.values()},
            "bob": {"side": "bob", **cfg.bob.values()},
            "detector": {name: getattr(cfg.detector, name) for name in _DETECTOR_FIELDS},
            "dt": cfg.dt,
            "emission_floor": cfg.emission_floor,
        },
        "results": {name: _null_if_nan(getattr(report, name)) for name in RESULT_FIELDS},
        "count_distribution": {
            ",".join(map(str, pat)): p
            for pat, p in sorted(report.count_distribution.items())
        },
        "post_state": None if report.post_state is None else {
            str(lab): _complex_pair(amp)
            for lab, amp in sorted(report.post_state.amps.items(),
                                   key=lambda kv: kv[0].factors)
        },
        "rho_post": None if report.rho_post is None else {
            f"{r} {c}": _complex_pair(v) for (r, c), v in report.rho_post.entries.items()
        },
        "diagnostics": list(report.diagnostics),
    }
    if report.mc_trials > 0:
        doc["monte_carlo"] = {
            "p_detected": report.mc_p_detected,
            "trials": report.mc_trials,
            "sigma": report.mc_sigma,
        }
    if report.dynamics_diags is not None:
        doc["dynamics"] = {
            name: {
                "emission_prob": rep.emission_prob,
                "spont_loss": rep.spont_loss,
                "excited_pop_max": rep.excited_pop_max,
                "closure_error": rep.closure_error,
                "channel_weights": {ch: float(np.trapezoid(np.abs(f) ** 2, rep.t_grid))
                                    for ch, f in sorted(rep.channel_pulses.items())},
                "steps": int(len(rep.t_grid) - 1),
            }
            for name, rep in zip(("alice", "bob"), report.dynamics_diags)
        }
    return doc


def report_json(report: CloneReport) -> str:
    return json.dumps(report_to_dict(report), indent=2, sort_keys=True) + "\n"


def summary_csv(report: CloneReport) -> str:
    """Flat one-row scalar summary with a pinned header."""
    cfg = report.config
    a, b = cfg.input.a, cfg.input.b
    row = [cfg.mode.value, *map(fmt, (a.real, a.imag, b.real, b.imag)),
           *(fmt(getattr(report, name)) for name in RESULT_FIELDS),
           *(fmt(getattr(cfg.detector, name)) for name in _DETECTOR_FIELDS),
           str(cfg.seed)]
    return ",".join(SUMMARY_COLUMNS) + "\n" + ",".join(row) + "\n"


def pulse_csv(rep: DynamicsReport) -> str:
    """Emission envelope on the integration grid: t, Re f, Im f.

    Each row is formatted once, with the same 12 significant digits as
    :func:`fmt`.
    """
    f = rep.pulse_shape
    rows = zip(rep.t_grid.tolist(), f.real.tolist(), f.imag.tolist())
    return "t,re_f,im_f\n" + "".join(["%.12g,%.12g,%.12g\n" % row for row in rows])
