"""Waveplates, beam splitters and two-fold coincidence bookkeeping.

Photons are dual-rail encoded: one subsystem per (path, polarization) mode,
id ``"<path>:<pol>"``, with occupation alphabet {0, 1} at protocol level.
Occupation 2 appears only transiently inside beam-splitter chains (photon
bunching) and is confined to this module.

Two independent routes to the post-selected two-photon output coexist here:

- :func:`symmetric_project` applies the singlet-complement projector
  I - |psi-><psi-| directly to the two polarization qubits (the algebraic
  shortcut), with the basis action

      |HH> -> |HH>        |HV> -> (|HV> + |VH>)/2
      |VV> -> |VV>        |VH> -> (|HV> + |VH>)/2

- :func:`detection_bookkeeping` pushes the actual mode operators through a
  50:50 splitter followed by one more 50:50 splitter per output arm and
  post-selects one photon at each detector of an arm.  This is the route an
  experiment takes; it also handles partially distinguishable photons via an
  orthogonal temporal tag.

Tests require both routes to agree on the conditional output state for
indistinguishable photons.  The operational coincidence probability they
yield (3/16 per instrumented arm, 3/8 with both arms counted) is reported as
computed; it is *not* adjusted to match any externally quoted figure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from .qstate import (
    BasisLabel,
    DegenerateNormError,
    DensityMatrix,
    Space,
    StateVector,
    normalize,
    partial_trace,
    rename_subsystems,
    tensor,
)

__all__ = [
    "OCC_PROTOCOL",
    "OCC_TRANSIENT",
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
OCC_TRANSIENT = ("0", "1", "2")
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
# beam splitter
# ---------------------------------------------------------------------------


def _bs_pair_terms(n1: int, n2: int):
    """Expand (a1 + a2)^n1 (a1 - a2)^n2 / sqrt(2)^(n1+n2) into |m1, m2>.

    Symmetric real 50:50 convention: input slot 1 maps to the '+' output
    combination, slot 2 to the '-' combination.  Yields (m1, m2, coeff)
    including the bosonic sqrt(m!) normalization factors.
    """
    base = (1.0 / math.sqrt(2.0)) ** (n1 + n2) / math.sqrt(
        math.factorial(n1) * math.factorial(n2))
    for k1 in range(n1 + 1):
        for k2 in range(n2 + 1):
            m1 = k1 + k2
            m2 = (n1 - k1) + (n2 - k2)
            coeff = (math.comb(n1, k1) * math.comb(n2, k2)
                     * (-1.0) ** (n2 - k2) * base
                     * math.sqrt(math.factorial(m1) * math.factorial(m2)))
            yield m1, m2, coeff


def _extend_occupation(space: Space, mode_ids: set) -> Space:
    subs = []
    for sid, alpha in space.subsystems:
        if sid in mode_ids and len(alpha) < len(OCC_TRANSIENT):
            subs.append((sid, OCC_TRANSIENT))
        else:
            subs.append((sid, alpha))
    return Space(tuple(subs))


def _split(amps: dict, mode_pairs: Sequence[tuple[str, str]]) -> dict:
    """50:50 splitter on sparse amplitudes keyed by sorted factor tuples.

    Every (slot 1, slot 2) mode pair mixes by :func:`_bs_pair_terms`; other
    factors ride along.  Returns the new amplitudes, zeros dropped.
    """
    out: dict = {}
    for factors, amp in amps.items():
        branches = [(dict(factors), amp)]
        for m1, m2 in mode_pairs:
            nxt = []
            for levels, a in branches:
                n1, n2 = int(levels[m1]), int(levels[m2])
                if n1 == 0 and n2 == 0:
                    nxt.append((levels, a))
                    continue
                for o1, o2, coeff in _bs_pair_terms(n1, n2):
                    if o1 > 2 or o2 > 2:
                        raise ValueError("occupation beyond 2 unsupported (more than two photons per channel)")
                    lv = dict(levels)
                    lv[m1], lv[m2] = str(o1), str(o2)
                    nxt.append((lv, a * coeff))
            branches = nxt
        for levels, a in branches:
            key = tuple(sorted(levels.items()))
            out[key] = out.get(key, 0.0) + a
    return {k: v for k, v in out.items() if v != 0.0}


def beamsplitter(s: StateVector, in1: str, in2: str) -> StateVector:
    """50:50 beam splitter between two paths, per polarization channel.

    Mode convention (symmetric, real):

        a_in1,p -> (a_out1,p + a_out2,p)/sqrt(2)
        a_in2,p -> (a_out1,p - a_out2,p)/sqrt(2)

    where output 1 reuses the ``in1`` slot and output 2 the ``in2`` slot
    (rename afterwards to taste).  Occupation-2 labels may appear in the
    result (photon bunching); they are legal only transiently inside optics
    chains and must be resolved before states cross back into protocol level.
    """
    if in1 == in2:
        raise ValueError("beam splitter needs two distinct paths")
    found = _paths_and_pols(s.space)
    if in1 not in found or in2 not in found:
        raise ValueError(f"paths {in1!r}, {in2!r} not both present")
    if found[in1] != found[in2]:
        raise ValueError(f"polarization channels differ between {in1!r} and {in2!r}")
    channels = sorted(found[in1])

    pairs = [(mode_id(in1, c), mode_id(in2, c)) for c in channels]
    space = _extend_occupation(s.space, {m for pair in pairs for m in pair})
    out = _split({label.factors: amp for label, amp in s.amps.items()}, pairs)
    return StateVector(space, {BasisLabel(k): v for k, v in out.items()})


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
        return label.replaced({mode_id(path, pol): "1" if pol == want else "0"
                               for path, want in ((PATH_A, p), (PATH_B, q)) for pol in POLS})

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

    p_arm_primary: float
    p_arm_mirror: float
    p_coincidence: float
    count_distribution: dict
    rho_conditional: DensityMatrix | None
    visibility: float


_TAGS = ("t0", "t1")
_DET_PATHS = ("d1", "d2", "d1x", "d2x")


def _tagged_pairs(path1: str, path2: str) -> list:
    """(slot 1, slot 2) mode pairs over every (pol, tag) channel of two paths."""
    return [(f"{path1}:{pol}:{tag}", f"{path2}:{pol}:{tag}") for pol in POLS for tag in _TAGS]


def detection_bookkeeping(s: StateVector, overlap_c: complex = 1.0) -> DetectionReport:
    """Push the photon pair through the splitter network and post-select.

    Network: paths A, B meet on a 50:50 splitter; each output arm is split
    again on its own 50:50 splitter whose two outputs are detectors (D1, D2)
    and (D1', D2').  A two-fold coincidence is one photon at each detector of
    the same arm.

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
    extra_ids = [sid for sid in s.space.ids if sid not in photon_ids]
    for sid in extra_ids:
        if ":" in sid:
            raise ValueError(f"unexpected photonic mode {sid!r}; only paths A and B are routed")

    norm_in = s.norm_sq()

    # --- lift into the tagged mode algebra -------------------------------
    # photon A rides tag t0; photon B splits c|t0> + s_perp|t1>
    tag_paths = ("A", "B", "vac1", "vac2")
    tagged: dict = {}
    for label, amp in s.amps.items():
        p, q = _pol_of(label, PATH_A), _pol_of(label, PATH_B)
        extras = label.project(extra_ids)
        base = {f"{pp}:{pol}:{tag}": "0" for pp in tag_paths for pol in POLS for tag in _TAGS}
        for tag_b, w in (("t0", c), ("t1", s_perp)):
            if w == 0:
                continue
            levels = dict(base)
            levels[f"A:{p}:t0"] = "1"
            levels[f"B:{q}:{tag_b}"] = "1"
            key = tuple(sorted(list(levels.items()) + list(extras)))
            tagged[key] = tagged.get(key, 0.0) + amp * w

    # --- splitter network -------------------------------------------------
    # tagged keys are plain sorted tuples (mode factors + extras); extras have
    # no ':'-structured ids so the splitter never touches them
    m = _split(tagged, _tagged_pairs("A", "B"))   # outputs: arm in A slot / arm in B slot
    m = _split(m, _tagged_pairs("B", "vac2"))     # primary arm (B slot): detectors d1 (B), d2 (vac2)
    m = _split(m, _tagged_pairs("A", "vac1"))     # mirror arm (A slot): detectors d1x (A), d2x (vac1)
    renames = {f"{path}:{pol}:{tag}": f"{det}:{pol}:{tag}"
               for path, det in (("B", "d1"), ("vac2", "d2"), ("A", "d1x"), ("vac1", "d2x"))
               for pol in POLS for tag in _TAGS}
    final: dict = {}
    for key, amp in m.items():
        nk = tuple(sorted((renames.get(sid, sid), lv) for sid, lv in key))
        final[nk] = final.get(nk, 0.0) + amp

    # --- photon-count patterns and the coincidence herald ------------------
    # heralded amplitudes over (pol3, pol4, extras) plus the arm and the two
    # temporal tags, which are traced out
    extras_space = tuple((sid, s.space.alphabet(sid)) for sid in extra_ids)
    cond_space = Space((("ph3", POLS), ("ph4", POLS)) + extras_space)
    herald_space = Space(cond_space.subsystems + (
        ("herald:arm", ("d1", "d1x")), ("herald:tag3", _TAGS), ("herald:tag4", _TAGS)))
    dist: dict = {}
    herald: dict = {}
    for key, amp in final.items():
        tally = dict.fromkeys(_DET_PATHS, 0)
        for sid, lv in key:
            parts = sid.split(":")
            if len(parts) == 3 and parts[0] in tally:
                tally[parts[0]] += int(lv)
        pat = tuple(tally[p] for p in _DET_PATHS)
        dist[pat] = dist.get(pat, 0.0) + abs(amp) ** 2
        if pat == (1, 1, 0, 0):
            det_a, det_b = "d1", "d2"
        elif pat == (0, 0, 1, 1):
            det_a, det_b = "d1x", "d2x"
        else:
            continue
        pol_tag = {}
        extras = []
        for sid, lv in key:
            parts = sid.split(":")
            if len(parts) == 3:
                if int(lv) == 1 and parts[0] in (det_a, det_b):
                    pol_tag[parts[0]] = (parts[1], parts[2])
            else:
                extras.append((sid, lv))
        (p3, t3), (p4, t4) = pol_tag[det_a], pol_tag[det_b]
        label = BasisLabel(tuple(sorted(
            [("ph3", p3), ("ph4", p4), ("herald:arm", det_a),
             ("herald:tag3", t3), ("herald:tag4", t4)] + extras)))
        herald[label] = herald.get(label, 0.0) + amp

    p_primary = dist.get((1, 1, 0, 0), 0.0)
    p_mirror = dist.get((0, 0, 1, 1), 0.0)
    p_coincidence = p_primary + p_mirror
    rho = None
    if p_coincidence / max(norm_in, 1e-300) > 1e-30:
        # normalize the heralded state to unit trace
        traced = partial_trace(StateVector(herald_space, herald), keep=cond_space.ids)
        rho = DensityMatrix(cond_space, {k: v / p_coincidence
                                         for k, v in traced.entries.items()})

    return DetectionReport(
        p_arm_primary=p_primary / norm_in,
        p_arm_mirror=p_mirror / norm_in,
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
