"""Waveplates, beam splitters and two-fold coincidence bookkeeping.

Photons are dual-rail encoded: one subsystem per (path, polarization) mode,
id ``"<path>:<pol>"``, with occupation alphabet {0, 1} at protocol level.

Every splitter is linear, so it acts on each photon on its own
(:func:`_transfer`): a photon reaches each output mode with a fixed transfer
amplitude, its polarization and temporal tag riding along.  A multi-photon
amplitude is the product of its photons' amplitudes, summed into one Fock
term, with sqrt(m!) for m photons sharing a mode (Hong-Ou-Mandel bunching).
Only :func:`beamsplitter`'s output labels carry the bunched occupations.

Two independent routes to the post-selected two-photon output coexist here,
both on the pair as one array x[pol_A, pol_B, rest], laid out once per space:

- :func:`symmetric_project` applies the singlet-complement projector
  I - |psi-><psi-| directly to the two polarization qubits (the algebraic
  shortcut), with the basis action

      |HH> -> |HH>        |HV> -> (|HV> + |VH>)/2
      |VV> -> |VV>        |VH> -> (|HV> + |VH>)/2

- :func:`detection_bookkeeping` routes both photons through a 50:50
  splitter and one more 50:50 splitter per output arm, which takes photon A
  to the detectors (D1, D2, D1', D2') with amplitudes (1/2, 1/2, 1/2, 1/2)
  and photon B with (-1/2, -1/2, 1/2, 1/2) (one table, routed once through
  :func:`_transfer`), and post-selects one photon at each detector of an
  arm.  This is the route an experiment takes; it also handles partially
  distinguishable photons via an orthogonal temporal tag, and it never calls
  :func:`symmetric_project`.

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
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .qstate import (
    MAX_DM_DIM,
    BasisLabel,
    DegenerateNormError,
    DensityMatrix,
    Space,
    StateVector,
    label_index,
    normalize,
    partial_trace,  # noqa: F401  perfbench traces calls made through optics.partial_trace
    rename_subsystems,
    tensor,
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
    "qwp_relabel",
    "hwp0",
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


def photon_space(paths: Iterable[str], pols: Iterable[str] = POLS,
                 occ: tuple[str, ...] = OCC_PROTOCOL) -> Space:
    return Space(tuple((mode_id(p, pol), occ) for p in paths for pol in pols))


def one_photon(path: str, amps: Mapping[str, complex],
               pols: Iterable[str] = POLS) -> StateVector:
    """Single photon on ``path`` with polarization amplitudes {pol: amp}."""
    pols = tuple(pols)
    space = photon_space([path], pols)
    out = {}
    for pol, amp in amps.items():
        if pol not in pols:
            raise ValueError(f"unknown polarization {pol!r}")
        levels = {mode_id(path, q): ("1" if q == pol else "0") for q in pols}
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
# waveplates
# ---------------------------------------------------------------------------


def qwp_relabel(s: StateVector, path: str) -> StateVector:
    """Quarter-wave plate as a basis relabel: circular L/R -> linear H/V.

    The mode occupied by one left-circular photon becomes the H mode and the
    right-circular one becomes V.  Occupations above 1 are rejected: the
    relabel is only defined on the single-photon sector.
    """
    lm, rm = mode_id(path, "L"), mode_id(path, "R")
    ids = set(s.space.ids)
    if lm not in ids or rm not in ids:
        raise ValueError(f"path {path!r} has no circular modes to relabel")
    for label, amp in s.amps.items():
        if amp != 0 and (int(label.level(lm)) > 1 or int(label.level(rm)) > 1):
            raise ValueError(f"double occupation on {path!r}; quarter-wave relabel undefined")
    return rename_subsystems(s, {lm: mode_id(path, "H"), rm: mode_id(path, "V")})


def hwp0(s: StateVector, path: str) -> StateVector:
    """Half-wave plate at 0 degrees: H -> H, V -> -V on one path."""
    vm = mode_id(path, "V")
    if vm not in s.space.ids:
        raise ValueError(f"path {path!r} has no V mode")
    amps = {}
    for label, amp in s.amps.items():
        amps[label] = amp * ((-1.0) ** int(label.level(vm)))
    return StateVector(s.space, amps)


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
# the photon pair as one array
# ---------------------------------------------------------------------------

_OUT_NAMES = {mode_id(path, pol): mode_id(out, pol)
              for path, out in ((PATH_A, OUT_3), (PATH_B, OUT_4)) for pol in POLS}


class _PairPlan(NamedTuple):
    """x[pol_A, pol_B, rest] of a joint space, rest over its riders in canonical order."""

    index: Mapping[BasisLabel, int]   # sector label -> flat position in x
    partners: tuple                   # per position: itself, or the (HV, VH) pair it mixes into
    out_space: Space                  # paths A, B renamed out3, out4
    out_labels: tuple                 # per position, its label on out_space
    cond_space: Space                 # ph3, ph4 and the riders
    cond_order: np.ndarray            # the flat positions in cond_space's label order


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
    cond_space = Space((("ph3", POLS), ("ph4", POLS)) + riders)
    cond_index = label_index(cond_space)
    index, partners, cond_pos = {}, [], []
    for k, (p, q, *levels) in enumerate(product(POLS, POLS, *(alpha for _, alpha in riders))):
        modes = {mode_id(path, pol): "1" if pol == want else "0"
                 for path, want in ((PATH_A, p), (PATH_B, q)) for pol in POLS}
        rider = dict(zip((sid for sid, _ in riders), levels))
        index[space.label({**modes, **rider})] = k
        partners.append((k,) if p == q else (rest + k % rest, 2 * rest + k % rest))
        cond_pos.append(cond_index[cond_space.label({"ph3": p, "ph4": q, **rider})])
    renamed = rename_subsystems(StateVector(space, dict.fromkeys(index, 1.0)), _OUT_NAMES)
    return _PairPlan(MappingProxyType(index), tuple(partners), renamed.space,
                     tuple(renamed.amps), cond_space, np.argsort(cond_pos))


def _pair_array(s: StateVector, plan: _PairPlan) -> tuple[np.ndarray, list]:
    """x[pol_A, pol_B, rest] of ``s``, each label's flat position; off-sector labels raise."""
    where = list(map(plan.index.get, s.amps))
    if None in where:
        weight = sum(abs(amp) ** 2 for k, amp in zip(where, s.amps.values()) if k is None)
        raise ValueError(f"amplitude weight {weight:.3e} outside the one-photon-per-path sector")
    x = np.zeros(len(plan.index), dtype=complex)
    x[where] = list(s.amps.values())
    return x.reshape(2, 2, -1), where


# ---------------------------------------------------------------------------
# symmetric projection (algebraic route)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceOutcome:
    """Result of post-selecting the symmetric two-photon branch."""

    projected_state: StateVector | None   # normalized; None on heralded failure
    probability: float                    # squared norm of the projected branch
    raw_amplitudes: dict                  # pre-normalization label -> amp


def symmetric_project(s: StateVector) -> CoincidenceOutcome:
    """Project the A/B photon pair onto the symmetric polarization subspace.

    Applies I - |psi-><psi-| to the two polarization qubits (any extra
    subsystems ride along untouched), renames paths A -> out3, B -> out4 and
    normalizes.  ``probability`` is the squared norm of the projection; a
    singlet input is a heralded failure (probability 0, no state).
    """
    plan = _pair_plan(s.space)
    x, where = _pair_array(s, plan)
    x[0, 1] = x[1, 0] = 0.5 * x[0, 1] + 0.5 * x[1, 0]
    values = (x.ravel() + 0.0).tolist()      # + 0.0: no signed zeros
    # labels in the ket's own order, a mixed one followed by both partners,
    # so the norm sums the same terms in the same order on every call
    order = dict.fromkeys(j for k in where for j in plan.partners[k])
    renamed = StateVector(plan.out_space, {plan.out_labels[k]: values[k]
                                           for k in order if values[k] != 0.0})
    try:
        state, prob = normalize(renamed)
    except DegenerateNormError:
        state, prob = None, 0.0
    return CoincidenceOutcome(state, prob, dict(renamed.amps))


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


# The coincidence network, one splitter stage at a time (arm1 holds D1, D2;
# arm2 holds D1', D2').
_NETWORK = (
    ((PATH_A, (("arm1", _R), ("arm2", _R))), (PATH_B, (("arm1", -_R), ("arm2", _R)))),
    (("arm1", (("d2", _R), ("d1", _R))), ("arm2", (("d2x", _R), ("d1x", _R)))),
)
_DETECTORS = ("d1", "d2", "d1x", "d2x")


def _detector_amplitudes(path: str) -> np.ndarray:
    """Amplitude of one photon entering on ``path`` at each of ``_DETECTORS``."""
    reached = _transfer(_transfer({(((path,),), ()): 1.0}, _NETWORK[0]), _NETWORK[1])
    return np.array([reached[(((d,),), ())] for d in _DETECTORS])


# per ordered detector pair [d, e], photon A at d and B at e: its amplitude and
# (row-major) its count pattern
_PAIR_AMPS = np.multiply.outer(_detector_amplitudes(PATH_A), _detector_amplitudes(PATH_B))
_PATTERNS = tuple(tuple((d == f) + (e == f) for f in _DETECTORS)
                  for d in _DETECTORS for e in _DETECTORS)
_COINCIDENCES = ((1, 1, 0, 0), (0, 0, 1, 1))
_ARMS = ([0, 2], [1, 3])    # [d, e] of (D1, D2) and (D1', D2')


def detection_bookkeeping(s: StateVector, overlap_c: complex = 1.0) -> DetectionReport:
    """Push the photon pair through the splitter network and post-select.

    Network: paths A, B meet on a 50:50 splitter; each output arm is split
    again on its own 50:50 splitter whose two outputs are detectors (D1, D2)
    and (D1', D2').  A two-fold coincidence is one photon at each detector of
    the same arm.  Each photon reaches each detector with a fixed amplitude,
    worked out once by routing it through :func:`_transfer`, so the pair
    array x[pol_A, pol_B, rest] reaches detectors (d, e) with
    ``_PAIR_AMPS[d, e] * x``.  Where both photons share a temporal tag, one
    Fock term adds both photon orderings (the permanent of the 2x2 transfer
    submatrix); weighting every ordered detector pair by 1/2 then counts each
    term once, a bunched one with its sqrt(2).

    ``overlap_c`` is the complex temporal-mode overlap of the B photon's
    emission envelope against the A photon's.  |overlap_c| = 1 means fully
    indistinguishable photons; the orthogonal remainder is carried by a
    second temporal tag that never interferes with the first.  Extra
    (non-photonic) subsystems of ``s`` ride along and stay in the conditional
    output, the Gram matrix of the six (arm, tag at D1, tag at D2) columns.
    """
    c = complex(overlap_c)
    if abs(c) > 1.0 + 1e-12:
        raise ValueError(f"|overlap| = {abs(c):.6g} exceeds 1")
    s_perp = math.sqrt(max(0.0, 1.0 - abs(c) ** 2))
    plan = _pair_plan(s.space)
    for sid in plan.cond_space.ids:
        if ":" in sid:
            raise ValueError(f"unexpected photonic mode {sid!r}; only paths A and B are routed")
    x, _ = _pair_array(s, plan)
    norm_in = s.norm_sq()

    # photon A rides tag t0; photon B splits c|t0> + s_perp|t1>
    t = np.multiply.outer(_PAIR_AMPS, x)           # [d, e, pol at d, pol at e, rest]
    swapped = t.transpose(1, 0, 3, 2, 4)           # the same Fock term, photons exchanged
    same, cross = c * (t + swapped), s_perp * t
    weight = 0.5 * (same.real ** 2 + same.imag ** 2) + cross.real ** 2 + cross.imag ** 2
    dist: dict = {}
    for pat, w in zip(_PATTERNS, weight.sum(axis=(2, 3, 4)).ravel().tolist()):
        dist[pat] = dist.get(pat, 0.0) + w
    dist = {pat: p for pat, p in dist.items() if p != 0.0}

    p_coincidence = dist.get(_COINCIDENCES[0], 0.0) + dist.get(_COINCIDENCES[1], 0.0)
    rho = None
    if p_coincidence / max(norm_in, 1e-300) > 1e-30:
        # columns (arm, t0, t0), (arm, t0, t1), (arm, t1, t0), rows in cond_space order
        cols = np.concatenate([same[_ARMS], cross[_ARMS], s_perp * swapped[_ARMS]])
        cols = cols.reshape(6, -1)[:, plan.cond_order]
        gram = np.einsum("gi,gj->ij", cols, cols.conj())
        # real and imaginary parts divided apart: numpy divides a complex
        # array by a real through its reciprocal, one rounding more
        rho = DensityMatrix.from_array(plan.cond_space,
                                       (gram.view(float) / p_coincidence).view(complex))

    return DetectionReport(
        p_coincidence=p_coincidence / norm_in,
        count_distribution={k: v / norm_in for k, v in dist.items()},
        rho_conditional=rho,
        visibility=abs(c) ** 2,
    )


def polarization_singlet(path1: str = PATH_A, path2: str = PATH_B) -> StateVector:
    """(|HV> - |VH>)/sqrt(2) across two paths (dual-rail)."""
    r = 1.0 / math.sqrt(2.0)
    a_h = one_photon(path1, {"H": 1.0})
    a_v = one_photon(path1, {"V": 1.0})
    b_h = one_photon(path2, {"H": 1.0})
    b_v = one_photon(path2, {"V": 1.0})
    return r * tensor(a_h, b_v) - r * tensor(a_v, b_h)
