"""Waveplates, beam splitters and two-fold coincidence bookkeeping.

Photons are dual-rail encoded: one subsystem per (path, polarization) mode,
id ``"<path>:<pol>"``, with occupation alphabet {0, 1} at protocol level.

Every splitter is linear, so it acts on each photon on its own
(:func:`_transfer`): a photon reaches each output mode with a fixed transfer
amplitude, its polarization and temporal tag riding along.  A multi-photon
amplitude is the product of its photons' amplitudes, summed into one Fock
term, with sqrt(m!) for m photons sharing a mode (Hong-Ou-Mandel bunching).
Only :func:`beamsplitter`'s output labels carry the bunched occupations.

Two independent routes to the post-selected two-photon output coexist here:

- :func:`symmetric_project` applies the singlet-complement projector
  I - |psi-><psi-| directly to the two polarization qubits (the algebraic
  shortcut), with the basis action

      |HH> -> |HH>        |HV> -> (|HV> + |VH>)/2
      |VV> -> |VV>        |VH> -> (|HV> + |VH>)/2

- :func:`detection_bookkeeping` routes both photons through a 50:50
  splitter and one more 50:50 splitter per output arm, which takes photon A
  to the detectors (D1, D2, D1', D2') with amplitudes (1/2, 1/2, 1/2, 1/2)
  and photon B with (-1/2, -1/2, 1/2, 1/2), and post-selects one photon at
  each detector of an arm.  This is the route an experiment takes; it also
  handles partially distinguishable photons via an orthogonal temporal tag,
  and it never calls :func:`symmetric_project`.

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
from typing import Iterable, Mapping

import numpy as np

from .qstate import (
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
    "LEAK_TOL",
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

# amplitude weight tolerated outside the modeled occupation sector
LEAK_TOL = 1e-12


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


def _occupation(label: BasisLabel, sid: str) -> int:
    return int(label.level(sid))


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
        if amp != 0 and (_occupation(label, lm) > 1 or _occupation(label, rm) > 1):
            raise ValueError(f"double occupation on {path!r}; quarter-wave relabel undefined")
    return rename_subsystems(s, {lm: mode_id(path, "H"), rm: mode_id(path, "V")})


def hwp0(s: StateVector, path: str) -> StateVector:
    """Half-wave plate at 0 degrees: H -> H, V -> -V on one path."""
    vm = mode_id(path, "V")
    if vm not in s.space.ids:
        raise ValueError(f"path {path!r} has no V mode")
    amps = {}
    for label, amp in s.amps.items():
        amps[label] = amp * ((-1.0) ** _occupation(label, vm))
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


@lru_cache(maxsize=4096)
def _routings(photons: tuple, route: tuple) -> tuple:
    """Every way ``photons`` leave one stage: (sorted output modes, amplitude).

    ``route`` is the stage as ``(place, ((place, amplitude), ...))`` pairs;
    keyed on its content, the table is shared by every term and call that
    routes the same photons through the same stage.
    """
    table = dict(route)
    legs_per_photon = [[((place,) + m[1:], x) for place, x in table[m[0]]] for m in photons]
    return tuple((tuple(sorted(mode for mode, _ in legs)), math.prod(x for _, x in legs))
                 for legs in product(*legs_per_photon))


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
    out: dict = {}
    for (photons, rest), amp in terms.items():
        amp = amp / _bose(photons)
        for modes, x in _routings(photons, route):
            key = (modes, rest)
            out[key] = out.get(key, 0.0) + amp * x
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
# symmetric projection (algebraic route)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoincidenceOutcome:
    """Result of post-selecting the symmetric two-photon branch."""

    projected_state: StateVector | None   # normalized; None on heralded failure
    probability: float                    # squared norm of the projected branch
    raw_amplitudes: dict                  # pre-normalization label -> amp


def _pol_of(label: BasisLabel, path: str) -> str:
    occupied = [pol for pol in POLS if _occupation(label, mode_id(path, pol)) == 1]
    if len(occupied) != 1:
        raise ValueError(f"path {path!r} does not hold exactly one photon in {label}")
    return occupied[0]


def _check_one_photon_per_path(s: StateVector, paths: Iterable[str]):
    bad = 0.0
    for label, amp in s.amps.items():
        for path in paths:
            n = sum(_occupation(label, mode_id(path, pol)) for pol in POLS)
            if n != 1:
                bad += abs(amp) ** 2
                break
    if bad > LEAK_TOL:
        raise ValueError(
            f"amplitude weight {bad:.3e} outside the one-photon-per-path sector")


def symmetric_project(s: StateVector) -> CoincidenceOutcome:
    """Project the A/B photon pair onto the symmetric polarization subspace.

    Applies I - |psi-><psi-| to the two polarization qubits (any extra
    subsystems ride along untouched), renames paths A -> out3, B -> out4 and
    normalizes.  ``probability`` is the squared norm of the projection; a
    singlet input is a heralded failure (probability 0, no state).
    """
    _check_one_photon_per_path(s, (PATH_A, PATH_B))

    def relabel(label: BasisLabel, p: str, q: str) -> BasisLabel:
        levels = {mode_id(path, pol): "1" if pol == want else "0"
                  for path, want in ((PATH_A, p), (PATH_B, q)) for pol in POLS}
        return BasisLabel(tuple((sid, levels.get(sid, lv)) for sid, lv in label.factors))

    raw: dict = {}
    for label, amp in s.amps.items():
        p, q = _pol_of(label, PATH_A), _pol_of(label, PATH_B)
        if p == q:
            raw[label] = raw.get(label, 0.0) + amp
        else:
            # (|HV> + |VH>)/2 for either antisymmetric-ordered input
            for pp, qq in (("H", "V"), ("V", "H")):
                key = relabel(label, pp, qq)
                raw[key] = raw.get(key, 0.0) + 0.5 * amp
    raw = {k: v for k, v in raw.items() if v != 0.0}
    projected = StateVector(s.space, raw)
    renamed = rename_subsystems(projected, {
        mode_id(PATH_A, "H"): mode_id(OUT_3, "H"),
        mode_id(PATH_A, "V"): mode_id(OUT_3, "V"),
        mode_id(PATH_B, "H"): mode_id(OUT_4, "H"),
        mode_id(PATH_B, "V"): mode_id(OUT_4, "V"),
    })
    try:
        state, prob = normalize(renamed)
    except DegenerateNormError:
        return CoincidenceOutcome(None, 0.0, {k: v for k, v in renamed.amps.items()})
    return CoincidenceOutcome(state, prob, {k: v for k, v in renamed.amps.items()})


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
# arm2 holds D1', D2').  Each route lists a splitter's second output first and
# arm1 sorts before arm2: that fixes the order in which count patterns first
# appear, and so the pattern each draw of the seeded detection Monte Carlo
# lands on.
_NETWORK = (
    ((PATH_A, (("arm1", _R), ("arm2", _R))), (PATH_B, (("arm1", -_R), ("arm2", _R)))),
    (("arm1", (("d2", _R), ("d1", _R))), ("arm2", (("d2x", _R), ("d1x", _R)))),
)
_DETECTORS = ("d1", "d2", "d1x", "d2x")
_PATTERNS = {(d, e): tuple((d == f) + (e == f) for f in _DETECTORS)
             for d in _DETECTORS for e in _DETECTORS}
_COINCIDENCES = ((1, 1, 0, 0), (0, 0, 1, 1))


def detection_bookkeeping(s: StateVector, overlap_c: complex = 1.0) -> DetectionReport:
    """Push the photon pair through the splitter network and post-select.

    Network: paths A, B meet on a 50:50 splitter; each output arm is split
    again on its own 50:50 splitter whose two outputs are detectors (D1, D2)
    and (D1', D2').  A two-fold coincidence is one photon at each detector of
    the same arm.  Each photon is routed on its own (:func:`_transfer`); a
    two-photon amplitude is the product of the two photons' routes, summed
    over both orderings into one Fock term.

    ``overlap_c`` is the complex temporal-mode overlap of the B photon's
    emission envelope against the A photon's.  |overlap_c| = 1 means fully
    indistinguishable photons; the orthogonal remainder is carried by a
    second temporal tag that never interferes with the first.  Extra
    (non-photonic) subsystems of ``s`` ride along and stay in the conditional
    output.
    """
    c = complex(overlap_c)
    if abs(c) > 1.0 + 1e-12:
        raise ValueError(f"|overlap| = {abs(c):.6g} exceeds 1")
    s_perp = math.sqrt(max(0.0, 1.0 - abs(c) ** 2))
    _check_one_photon_per_path(s, (PATH_A, PATH_B))

    photon_ids = {mode_id(p, pol) for p in (PATH_A, PATH_B) for pol in POLS}
    extras = tuple(sub for sub in s.space.subsystems if sub[0] not in photon_ids)
    for sid, _ in extras:
        if ":" in sid:
            raise ValueError(f"unexpected photonic mode {sid!r}; only paths A and B are routed")

    norm_in = s.norm_sq()

    # photon A rides tag t0; photon B splits c|t0> + s_perp|t1>
    fock: dict = {}
    for label, amp in s.amps.items():
        p, q = _pol_of(label, PATH_A), _pol_of(label, PATH_B)
        rest = tuple(f for f in label.factors if f[0] not in photon_ids)
        for tag_b, w in (("t0", c), ("t1", s_perp)):
            if w != 0:
                key = (((PATH_A, p, "t0"), (PATH_B, q, tag_b)), rest)
                fock[key] = fock.get(key, 0.0) + amp * w
    for stage in _NETWORK:
        fock = _transfer(fock, stage)

    # photon-count patterns, and the coincidence herald grouped by what is
    # traced out of it (arm and temporal tags) over (pol3, pol4, extras)
    dist: dict = {}
    herald: dict = {}
    for (((d, p3, t3), (e, p4, t4)), rest), amp in fock.items():
        pat = _PATTERNS[(d, e)]
        dist[pat] = dist.get(pat, 0.0) + abs(amp) ** 2
        if pat in _COINCIDENCES:     # D1 (D1') sorts before D2 (D2')
            herald.setdefault((d, t3, t4), []).append(((p3, p4, rest), amp))

    p_coincidence = dist.get(_COINCIDENCES[0], 0.0) + dist.get(_COINCIDENCES[1], 0.0)
    rho = None
    if p_coincidence / max(norm_in, 1e-300) > 1e-30:
        # trace out arm and tags, normalized to unit trace
        entries: dict = {}
        for members in herald.values():
            for r, ar in members:
                for col, ac in members:
                    entries[(r, col)] = entries.get((r, col), 0.0) + ar * ac.conjugate()
        cond_space = Space((("ph3", POLS), ("ph4", POLS)) + extras)
        index = label_index(cond_space)
        pos = {r: index[BasisLabel(tuple(sorted((("ph3", r[0]), ("ph4", r[1])) + r[2])))]
               for r in {r for r, _ in entries}}
        matrix = np.zeros((cond_space.dim, cond_space.dim), dtype=complex)
        for (r, col), v in entries.items():
            matrix[pos[r], pos[col]] = v / p_coincidence
        rho = DensityMatrix.from_array(cond_space, matrix)

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
