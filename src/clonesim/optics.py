"""The photon pair, beam splitters and two-fold coincidence bookkeeping.

Photons are dual-rail encoded: one subsystem per (path, polarization) mode,
id ``"<path>:<pol>"``, with occupation alphabet {0, 1} at protocol level.
The interference stage sees one photon on each of paths A and B, so its ket
is fixed by an array x[pol_A, pol_B, rest], rest running over the rider
subsystems such as the remote atom; :func:`photon_pair` scatters one into
the joint vector.  The waveplates in front of it are no operation of their
own: ``protocol`` writes them into x.

Every splitter is linear, so it acts on each photon on its own: a photon
reaches each output mode with a fixed transfer amplitude, its polarization
and temporal tag riding along (:func:`_transfer` for :func:`beamsplitter`,
one transfer matrix per stage for the detection network).  A multi-photon
amplitude is the product of its photons' amplitudes, summed into one Fock
term, with sqrt(m!) for m photons sharing a mode (Hong-Ou-Mandel bunching).
Only :func:`beamsplitter`'s output labels carry the bunched occupations.

Two independent routes to the post-selected two-photon output coexist here.
Both take the pair's ket, read x[pol_A, pol_B, rest] out of its vector with
one gather, and are written in exchange form: with one photon per path every
statistic of the network is fixed by the norm n = ||x||^2, the
exchange overlap sigma = sum x[p,q,r] x*[q,p,r] (real) and the Gram matrix
of x and its photon swap xT[p,q,r] = x[q,p,r], Hong-Ou-Mandel interference
(Hong, Ou & Mandel, PRL 59, 2044 (1987)) in array form.

- :func:`symmetric_project` applies the singlet-complement projector
  I - |psi-><psi-| directly to the two polarization qubits (the algebraic
  shortcut): the branch is (x + xT)/2, of probability (n + sigma)/2, with
  the basis action

      |HH> -> |HH>        |HV> -> (|HV> + |VH>)/2
      |VV> -> |VV>        |VH> -> (|HV> + |VH>)/2

- :func:`detection_bookkeeping` routes both photons through a 50:50
  splitter and one more 50:50 splitter per output arm, which takes photon A
  to the detectors (D1, D2, D1', D2') with amplitudes (1/2, 1/2, 1/2, 1/2)
  and photon B with (-1/2, -1/2, 1/2, 1/2) (one table, the product of the
  two stages' transfer matrices), and post-selects one photon at each
  detector of an arm.  Each count pattern's probability is
  u + |c|^2 (sigma/n) v, and the heralded state
  k [x x+ + xT xT+ + |c|^2 (x xT+ + xT x+)] over n times its probability,
  with u, v and k read off that table at import.  This is the route an
  experiment takes; it also handles partially distinguishable photons via
  their envelope overlap c, and it never calls :func:`symmetric_project`.

Tests require both routes to agree on the conditional output state for
indistinguishable photons.  The operational coincidence probability they
yield (3/16 per instrumented arm, 3/8 with both arms counted) is reported as
computed; it is *not* adjusted to match any externally quoted figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .qstate import (
    MAX_DM_DIM,
    BasisLabel,
    DegenerateNormError,
    DensityMatrix,
    Space,
    StateVector,
    _checked_norm,
    _position,
    partial_trace,  # noqa: F401  perfbench traces calls made through optics.partial_trace
    tensor,  # noqa: F401  perfbench traces calls made through optics.tensor
)

__all__ = [
    "OCC_PROTOCOL",
    "POLS",
    "PATH_A",
    "PATH_B",
    "OUT_3",
    "OUT_4",
    "CoincidenceOutcome",
    "DetectionReport",
    "photon_space",
    "one_photon",
    "mode_id",
    "photon_pair",
    "beamsplitter",
    "symmetric_project",
    "detection_bookkeeping",
    "polarization_singlet",
]

OCC_PROTOCOL = ("0", "1")
POLS = ("H", "V")

PATH_A = "A"
PATH_B = "B"
OUT_3 = "out3"
OUT_4 = "out4"


def mode_id(path: str, pol: str) -> str:
    return f"{path}:{pol}"


def photon_space(paths: Iterable[str], occ: tuple[str, ...] = OCC_PROTOCOL) -> Space:
    return Space(tuple((mode_id(p, pol), occ) for p in paths for pol in POLS))


def one_photon(path: str, amps: Mapping[str, complex]) -> StateVector:
    """Single photon on ``path`` with polarization amplitudes {pol: amp}."""
    space = photon_space([path])
    out = {}
    for pol, amp in amps.items():
        if pol not in POLS:
            raise ValueError(f"unknown polarization {pol!r}")
        levels = {mode_id(path, q): ("1" if q == pol else "0") for q in POLS}
        out[space.label(levels)] = amp
    return StateVector(space, out)


def _paths_and_pols(space: Space) -> dict:
    """Parse mode ids of shape path:pol (2 fields); ignore other subsystems."""
    found: dict = {}
    for sid, _ in space.subsystems:
        parts = sid.split(":")
        if len(parts) == 2:
            found.setdefault(parts[0], set()).add(parts[1])
    return found


# ---------------------------------------------------------------------------
# beam splitters: photon-wise transfer amplitudes
# ---------------------------------------------------------------------------


_R = 1.0 / math.sqrt(2.0)


def _bose(modes: tuple) -> float:
    """sqrt(prod n!) over the occupations n of a sorted mode tuple."""
    f = run = 1
    for prev, mode in zip(modes, modes[1:]):
        run = run + 1 if mode == prev else 1
        f *= run
    return math.sqrt(f)


def _transfer(terms: dict, route: tuple) -> dict:
    """Send every photon of each Fock term through one linear stage on its own.

    ``terms`` maps ``(photons, rest)`` to amplitudes: ``photons`` is the
    sorted tuple of occupied modes ``(place, *channel)``, one entry per
    photon, and ``rest`` rides along.  ``route`` pairs each place with the
    ``(place, amplitude)`` pairs one photon reaches from it; its channel
    (polarization, temporal tag) is untouched.  The term
    prod(a+)|0>/sqrt(prod n!) becomes the product of its routed photons, so
    an output mode holding m photons gains sqrt(m!) (Hong-Ou-Mandel
    bunching).  Exact zeros are dropped.
    """
    table = dict(route)
    out: dict = {}
    for (photons, rest), amp in terms.items():
        amp = amp / _bose(photons)
        legs_per_photon = [[((place,) + m[1:], x) for place, x in table[m[0]]] for m in photons]
        for legs in product(*legs_per_photon):
            key = (tuple(sorted(mode for mode, _ in legs)), rest)
            out[key] = out.get(key, 0.0) + amp * math.prod(x for _, x in legs)
    return {k: v * _bose(k[0]) for k, v in out.items() if v != 0.0}


def beamsplitter(s: StateVector, in1: str, in2: str) -> StateVector:
    """50:50 beam splitter between two paths, per polarization channel.

    Mode convention (symmetric, real):

        a_in1,p -> (a_out1,p + a_out2,p)/sqrt(2)
        a_in2,p -> (a_out1,p - a_out2,p)/sqrt(2)

    where output 1 reuses the ``in1`` slot and output 2 the ``in2`` slot
    (rename afterwards to taste).  The two paths' modes get the occupation
    alphabet "0".."n" for the n photons they carry, so bunched labels
    (occupation 2 for a photon pair) are legal in the result.
    """
    if in1 == in2:
        raise ValueError("beam splitter needs two distinct paths")
    found = _paths_and_pols(s.space)
    if in1 not in found or in2 not in found:
        raise ValueError(f"paths {in1!r}, {in2!r} not both present")
    if found[in1] != found[in2]:
        raise ValueError(f"polarization channels differ between {in1!r} and {in2!r}")
    touched = [(path, pol) for path in (in1, in2) for pol in sorted(found[in1])]
    ids = {mode_id(*mode): mode for mode in touched}

    terms: dict = {}
    for label, amp in s.amps.items():
        photons = sorted(ids[sid] for sid, lv in label.factors if sid in ids for _ in range(int(lv)))
        rest = tuple(f for f in label.factors if f[0] not in ids)
        terms[(tuple(photons), rest)] = amp
    out = _transfer(terms, ((in1, ((in1, _R), (in2, _R))), (in2, ((in1, _R), (in2, -_R)))))

    n_max = max((len(photons) for photons, _ in terms), default=0)
    occ = tuple(str(n) for n in range(n_max + 1))
    space = Space(tuple((sid, occ if sid in ids else alpha) for sid, alpha in s.space.subsystems))
    amps = {}
    for (photons, rest), amp in out.items():
        levels = [(mode_id(*mode), str(photons.count(mode))) for mode in touched]
        amps[BasisLabel(tuple(sorted(list(rest) + levels)))] = amp
    return StateVector(space, amps)


# ---------------------------------------------------------------------------
# the photon pair and its array
# ---------------------------------------------------------------------------

_OUT_NAMES = {mode_id(path, pol): mode_id(out, pol)
              for path, out in ((PATH_A, OUT_3), (PATH_B, OUT_4)) for pol in POLS}


class _PairPlan(NamedTuple):
    """x[pol_A, pol_B, rest] in a joint space, rest over its riders in canonical order."""

    space: Space                  # the joint space itself
    sector: np.ndarray            # per entry of x, its flat position on space
    out_space: Space              # paths A, B renamed out3, out4
    out_positions: np.ndarray     # per cond_space position, its flat position on out_space
    cond_space: Space             # ph3, ph4 and the riders
    exchange_order: np.ndarray    # (2, d): positions on space of x and of xT, in cond_space order


@lru_cache(maxsize=64)
def _pair_plan(space: Space) -> _PairPlan:
    """The pair layout of ``space``, worked out once per layout.

    Only the one-photon-per-path sector is enumerated, 4 x dim(riders)
    labels, the riders being every subsystem but the four path modes; a
    sector above ``MAX_DM_DIM`` raises ``ValueError`` before it is.
    """
    riders = tuple(sub for sub in space.subsystems if sub[0] not in _OUT_NAMES)
    rest = math.prod(len(alpha) for _, alpha in riders)
    if 4 * rest > MAX_DM_DIM:
        raise ValueError(f"one-photon-per-path sector of dimension {4 * rest} "
                         f"exceeds the cap of {MAX_DM_DIM}")
    out_space = Space(tuple((_OUT_NAMES.get(sid, sid), alpha) for sid, alpha in space.subsystems))
    cond_space = Space((("ph3", POLS), ("ph4", POLS)) + riders)
    sector, out_pos, cond_pos, swapped = [], [], [], []
    for k, (p, q, *levels) in enumerate(product(POLS, POLS, *(alpha for _, alpha in riders))):
        modes = {mode_id(path, pol): "1" if pol == want else "0"
                 for path, want in ((PATH_A, p), (PATH_B, q)) for pol in POLS}
        rider = dict(zip((sid for sid, _ in riders), levels))
        sector.append(_position(space, space.label({**modes, **rider})))
        out_modes = {_OUT_NAMES[m]: lv for m, lv in modes.items()}
        out_pos.append(_position(out_space, out_space.label({**out_modes, **rider})))
        cond_pos.append(_position(cond_space, cond_space.label({"ph3": p, "ph4": q, **rider})))
        swapped.append((2 * POLS.index(q) + POLS.index(p)) * rest + k % rest)
    order = np.argsort(cond_pos)
    sector = np.array(sector)
    return _PairPlan(space, sector, out_space, np.take(out_pos, order), cond_space,
                     sector[np.stack([order, np.take(swapped, order)])])


_PAIR_MODES = photon_space((PATH_A, PATH_B)).subsystems


@lru_cache(maxsize=64)
def _rider_plan(riders: tuple) -> _PairPlan:
    """The pair layout of paths A, B and ``riders``, found once per rider set."""
    return _pair_plan(Space(_PAIR_MODES + riders))


def photon_pair(x, riders: tuple = ()) -> StateVector:
    """The ket x[pol_A, pol_B, rest]: one photon on each of paths A and B.

    ``riders`` are the other subsystems, (id, alphabet) pairs, and ``rest``
    runs over their levels in canonical (sorted-id, mixed-radix) order; x is
    scattered into the joint vector through the cached pair layout.  An
    ``x`` whose size is not 4 x dim(riders) raises ``ValueError``.
    """
    plan = _rider_plan(tuple((sid, tuple(alpha)) for sid, alpha in riders))
    x = np.asarray(x, dtype=complex)
    if x.size != len(plan.sector):
        raise ValueError(f"{x.size} pair amplitudes for a sector of dimension {len(plan.sector)}")
    vector = np.zeros(plan.space.dim, dtype=complex)
    vector[plan.sector] = x.ravel()
    return StateVector.from_array(plan.space, vector)


def _exchange_form(s: StateVector) -> tuple[np.ndarray, float, float, _PairPlan]:
    """(x, xT) as the rows of one array in cond_space order, n = ||x||^2, the
    exchange overlap sigma = sum x[p,q,r] x*[q,p,r], and the pair layout.

    Both rows are gathered from ``s``'s vector at once; any non-zero
    amplitude outside the one-photon-per-path sector raises ``ValueError``.
    sigma is real, as renaming p <-> q turns its sum into its own conjugate.
    """
    plan = _pair_plan(s.space)
    rows = s.vector[plan.exchange_order]
    if np.count_nonzero(rows[0]) != np.count_nonzero(s.vector):
        outside = s.vector.copy()
        outside[plan.sector] = 0.0
        raise ValueError(f"amplitude weight {np.vdot(outside, outside).real:.3e} "
                         "outside the one-photon-per-path sector")
    n, sigma = np.vdot(rows[0], rows[0]).real, np.vdot(rows[1], rows[0]).real
    return rows, float(n), float(sigma), plan


# ---------------------------------------------------------------------------
# symmetric projection (algebraic route)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceOutcome:
    """Result of post-selecting the symmetric two-photon branch."""

    projected_state: StateVector | None   # normalized; None on heralded failure
    probability: float                    # squared norm of the projected branch
    raw_state: StateVector                # the projected branch before normalizing
    norm_sq: float                        # n = ||x||^2 of the pair
    sigma: float                          # its exchange overlap

    @property
    def raw_amplitudes(self) -> Mapping:
        """Read-only {label: amplitude} of the branch before normalizing."""
        return self.raw_state.amps


def symmetric_project(s: StateVector) -> CoincidenceOutcome:
    """Project the A/B photon pair onto the symmetric polarization subspace.

    Applies I - |psi-><psi-| to the two polarization qubits, which turns x
    into (x + xT)/2 (any extra subsystems ride along untouched), renames
    paths A -> out3, B -> out4 and normalizes.  ``probability`` is the
    squared norm of the projection, (n + sigma)/2, and the outcome keeps n
    and sigma themselves; a singlet input is a heralded failure (probability
    0, no state) and a nan pair raises ``ValueError``.
    """
    rows, n, sigma, plan = _exchange_form(s)
    prob = 0.5 * (n + sigma)
    raw = np.zeros(plan.out_space.dim, dtype=complex)
    raw[plan.out_positions] = 0.5 * (rows[0] + rows[1]) + 0.0   # + 0.0: no signed zeros
    raw_state = StateVector.from_array(plan.out_space, raw)
    try:
        scale = 1.0 / _checked_norm(prob)
    except DegenerateNormError:
        return CoincidenceOutcome(None, 0.0, raw_state, n, sigma)
    return CoincidenceOutcome(StateVector.from_array(plan.out_space, scale * raw), prob, raw_state,
                              n, sigma)


# ---------------------------------------------------------------------------
# detection bookkeeping (operational route)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectionReport:
    """Second-quantized accounting of the two-fold coincidence post-selection.

    ``count_distribution`` maps photon-count patterns over the four detectors
    (D1, D2 in the primary arm, D1', D2' in the mirror arm) to probabilities.
    ``rho_conditional`` is the heralded output over polarization qubits
    ``ph3``, ``ph4`` plus whatever extra subsystems rode along; temporal tags
    are traced out.
    """

    p_coincidence: float
    count_distribution: dict
    rho_conditional: DensityMatrix | None
    visibility: float


# The detectors D1, D2, D1', D2' by arm: the one statement of the layout, from
# which the detector stage, the coincidence patterns and the herald (both
# detectors of an arm click, here and in ``protocol``) are derived.
_ARMS = ((0, 1), (2, 3))
# The coincidence network as one photon's transfer matrices: the arm splitter
# takes paths (A, B) to arms (arm1, arm2), and each arm's splitter takes it on
# to its two detectors.
_ARM_SPLITTER = np.array([[_R, -_R], [_R, _R]])
_DETECTOR_STAGE = np.array([[_R if d in arm else 0.0 for arm in _ARMS] for d in range(4)])
# U[d, path]: a photon entering on path A (0) or B (1) at detector d;
# A[d, e]: photon A at detector d and B at e
_U = _DETECTOR_STAGE @ _ARM_SPLITTER
_PAIR_AMPS = np.multiply.outer(_U[:, 0], _U[:, 1])
# per arm, the count pattern of one photon at each of its detectors
_COINCIDENCES = tuple(tuple(int(d in arm) for d in range(4)) for arm in _ARMS)
# smallest pair norm ||x|| routed: below it the heralded state's entries,
# of order n/16, leave the normal range
_PAIR_NORM_FLOOR = 1e-150


def _count_weights() -> tuple:
    """(pattern, u, v) per count pattern over the four detectors, in the
    order the ordered detector pairs (d, e) first reach it.

    A pattern's probability is u + |c|^2 (sigma/n) v, summed over the
    (d, e) that give it: u = sum A[d, e]^2 and v = sum A[d, e] A[e, d].  Both
    photon orderings of one Fock term land on the same pattern, so the u part
    of the partly distinguishable term is independent of c.
    """
    out: dict = {}
    for (d, e), a in np.ndenumerate(_PAIR_AMPS):
        pattern = tuple((d == f) + (e == f) for f in range(len(_U)))
        u, v = out.get(pattern, (0.0, 0.0))
        out[pattern] = (u + float(a * a), v + float(a * _PAIR_AMPS[e, d]))
    return tuple((pattern, u, v) for pattern, (u, v) in out.items())


_COUNT_WEIGHTS = _count_weights()
# k of the heralded state k [x x+ + xT xT+ + |c|^2 (x xT+ + xT x+)]: a
# coincidence is photon A at the first detector of an arm and B at the second,
# or the reverse, and over both arms A[d, e]^2, A[e, d]^2 and A[d, e] A[e, d]
# sum to the same k, so each exchange pair can be added as a + b
_K = float(np.sum(_PAIR_AMPS[tuple(zip(*_ARMS))] ** 2))


def detection_bookkeeping(s: StateVector, overlap_c: complex = 1.0) -> DetectionReport:
    """Push the photon pair through the splitter network and post-select.

    Network: paths A, B meet on a 50:50 splitter; each output arm is split
    again on its own 50:50 splitter whose two outputs are detectors (D1, D2)
    and (D1', D2').  A two-fold coincidence is one photon at each detector
    of the same arm.

    ``overlap_c`` is the complex temporal-mode overlap of the B photon's
    emission envelope against the A photon's.  |overlap_c| = 1 means fully
    indistinguishable photons; the orthogonal remainder never interferes, so
    only the part |c|^2 of the exchange terms survives.  In exchange form
    (module docstring): each count pattern has probability
    u + |c|^2 (sigma/n) v, a function of the ratio sigma/n alone, and the
    heralded state over ph3, ph4 and the riders (temporal tags traced out)
    is k [x x+ + xT xT+ + |c|^2 (x xT+ + xT x+)] over n times the
    coincidence probability, with u, v and k read off the per-photon detector
    amplitudes, the product of the two stages' transfer matrices.  Each
    exchange pair is summed as a + b, so the state is bitwise symmetric
    under ph3 <-> ph4.

    A nan overlap or pair raises ``ValueError``; a pair whose norm is zero,
    or so small that its heralded state would underflow, raises
    ``DegenerateNormError``.
    """
    c = complex(overlap_c)
    if not abs(c) <= 1.0 + 1e-12:     # also refuses nan
        raise ValueError(f"|overlap| = {abs(c):.6g} is not at most 1")
    visibility = abs(c) ** 2
    rows, n, sigma, plan = _exchange_form(s)
    for sid in plan.cond_space.ids:
        if ":" in sid:
            raise ValueError(f"unexpected photonic mode {sid!r}; only paths A and B are routed")
    _checked_norm(n, _PAIR_NORM_FLOOR)

    exchange = visibility * (sigma / n)
    dist = {pattern: w for pattern, u, v in _COUNT_WEIGHTS if (w := u + exchange * v) != 0.0}
    p_coincidence = dist.get(_COINCIDENCES[0], 0.0) + dist.get(_COINCIDENCES[1], 0.0)
    rho = None
    if p_coincidence > 1e-30:
        outer = rows[:, None, :, None] * rows.conj()[None, :, None, :]    # [i, j]: row i (row j)+
        gram = outer[0, 0] + outer[1, 1]
        gram *= _K
        cross = outer[0, 1] + outer[1, 0]
        cross *= _K * visibility
        gram += cross
        # real and imaginary parts divided apart: numpy divides a complex
        # array by a real through its reciprocal, one rounding more; + 0.0:
        # no signed zeros
        parts = gram.view(float)
        parts /= n * p_coincidence
        parts += 0.0
        rho = DensityMatrix.from_array(plan.cond_space, gram)

    return DetectionReport(
        p_coincidence=p_coincidence,
        count_distribution=dist,
        rho_conditional=rho,
        visibility=visibility,
    )


def polarization_singlet() -> StateVector:
    """(|HV> - |VH>)/sqrt(2) across paths A and B (dual-rail)."""
    r = 1.0 / math.sqrt(2.0)
    return photon_pair([[0.0, r], [-r, 0.0]])
