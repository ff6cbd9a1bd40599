"""Sparse labeled tensor-product states and operators.

Quantum states here live on a labeled tensor product of small subsystems
(atomic levels, cavity/photonic mode occupations).  Amplitudes are kept as a
sparse map from basis labels to complex numbers rather than as dense arrays:
the protocol states touch a few dozen basis labels inside spaces whose dense
dimension can reach 3^16, so a dense representation is never materialized
except inside the time integrator (see :func:`to_dense`).

A subsystem is identified by a string id and carries a finite level alphabet,
e.g. ``("atomB", ("gp0", "gL", "gR", "e0"))`` or ``("A:H", ("0", "1"))`` for a
photonic mode.  Subsystem order within a space is canonical (sorted by id), so
two states over the same subsystems always agree on label layout.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import product
from typing import Iterable, Mapping

import numpy as np

__all__ = [
    "CompositionError",
    "SpaceMismatchError",
    "DegenerateNormError",
    "Space",
    "BasisLabel",
    "StateVector",
    "DensityMatrix",
    "LinearOperator",
    "basis_state",
    "tensor",
    "inner",
    "apply",
    "partial_trace",
    "fidelity_pure",
    "normalize",
    "rename_subsystems",
    "state_to_json",
    "to_dense",
    "from_dense",
    "operator_to_dense",
]

NORM_FLOOR = 1e-14  # default degenerate-branch threshold for normalize()


class CompositionError(ValueError):
    """Tensor composition over overlapping subsystem ids."""


class SpaceMismatchError(ValueError):
    """Operation between states/operators on different spaces."""


class DegenerateNormError(ValueError):
    """Norm below the degenerate-branch floor."""


# ---------------------------------------------------------------------------
# spaces and labels
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Space:
    """Ordered collection of named subsystems with finite level alphabets.

    ``subsystems`` is a tuple of ``(id, alphabet)`` pairs.  The constructor
    canonicalizes the order (sorted by subsystem id) so any two spaces built
    from the same subsystems compare equal.
    """

    subsystems: tuple[tuple[str, tuple[str, ...]], ...]

    def __post_init__(self):
        ordered = tuple(sorted(((sid, tuple(alpha)) for sid, alpha in self.subsystems)))
        ids = [sid for sid, _ in ordered]
        if len(set(ids)) != len(ids):
            raise CompositionError(f"duplicate subsystem ids in space: {ids}")
        for sid, alpha in ordered:
            if not alpha:
                raise ValueError(f"subsystem {sid!r} has an empty alphabet")
            if len(set(alpha)) != len(alpha):
                raise ValueError(f"subsystem {sid!r} has duplicate levels: {alpha}")
        object.__setattr__(self, "subsystems", ordered)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(sid for sid, _ in self.subsystems)

    def alphabet(self, sid: str) -> tuple[str, ...]:
        for s, alpha in self.subsystems:
            if s == sid:
                return alpha
        raise ValueError(f"unknown subsystem {sid!r}")

    @property
    def dim(self) -> int:
        d = 1
        for _, alpha in self.subsystems:
            d *= len(alpha)
        return d

    def label(self, levels: Mapping[str, str]) -> "BasisLabel":
        """Build a basis label from a {subsystem id: level} mapping.

        The mapping must cover every subsystem of the space exactly.
        """
        extra = set(levels) - set(self.ids)
        if extra:
            raise ValueError(f"unknown subsystem(s) {sorted(extra)}")
        factors = []
        for sid, alpha in self.subsystems:
            if sid not in levels:
                raise ValueError(f"missing level for subsystem {sid!r}")
            lv = levels[sid]
            if lv not in alpha:
                raise ValueError(f"level {lv!r} not in alphabet of {sid!r}")
            factors.append((sid, lv))
        return BasisLabel(tuple(factors))

    def labels(self) -> Iterable["BasisLabel"]:
        """Enumerate all basis labels in canonical (mixed-radix) order."""
        ids = self.ids
        for combo in product(*(alpha for _, alpha in self.subsystems)):
            yield BasisLabel(tuple(zip(ids, combo)))

    def subspace(self, keep: Iterable[str]) -> "Space":
        keep = set(keep)
        missing = keep - set(self.ids)
        if missing:
            raise ValueError(f"unknown subsystem(s) {sorted(missing)}")
        return Space(tuple((sid, alpha) for sid, alpha in self.subsystems if sid in keep))


@dataclass(frozen=True)
class BasisLabel:
    """Tensor basis label: a tuple of (subsystem id, level) factors.

    Factor order is canonical (sorted by subsystem id); two labels with equal
    factors compare equal and hash equal.
    """

    factors: tuple[tuple[str, str], ...]

    def level(self, sid: str) -> str:
        for s, lv in self.factors:
            if s == sid:
                return lv
        raise ValueError(f"unknown subsystem {sid!r}")

    def project(self, ids: Iterable[str]) -> tuple[tuple[str, str], ...]:
        wanted = set(ids)
        return tuple(f for f in self.factors if f[0] in wanted)

    def replaced(self, updates: Mapping[str, str]) -> "BasisLabel":
        return BasisLabel(tuple((s, updates.get(s, lv)) for s, lv in self.factors))

    def __str__(self):
        return "|" + ",".join(f"{s}={lv}" for s, lv in self.factors) + ">"


def _clean(amps: dict) -> dict:
    return {k: v for k, v in amps.items() if v != 0.0}


def _coerce_entries(self) -> None:
    """__post_init__ of the (row, col)-keyed matrices: label keys, complex values."""
    coerced = {}
    for (r, c), v in self.entries.items():
        if not (isinstance(r, BasisLabel) and isinstance(c, BasisLabel)):
            raise TypeError("entry keys must be (BasisLabel, BasisLabel) pairs")
        coerced[(r, c)] = complex(v)
    object.__setattr__(self, "entries", coerced)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StateVector:
    """Sparse ket: map from basis labels to complex amplitudes.

    Amplitudes may be sub-normalized (projection branches) and raw operator
    applications may exceed unit norm; physical protocol states are validated
    where that matters rather than in the constructor.
    """

    space: Space
    amps: dict

    def __post_init__(self):
        coerced = {}
        for label, amp in self.amps.items():
            if not isinstance(label, BasisLabel):
                raise TypeError("amplitude keys must be BasisLabel instances")
            coerced[label] = complex(amp)
        object.__setattr__(self, "amps", coerced)

    def norm_sq(self) -> float:
        return sum((amp.real ** 2 + amp.imag ** 2) for amp in self.amps.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_sq())

    def amp(self, label: BasisLabel) -> complex:
        return self.amps.get(label, 0.0 + 0.0j)

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.space != other.space:
            raise SpaceMismatchError("cannot add states on different spaces")
        amps = dict(self.amps)
        for label, amp in other.amps.items():
            amps[label] = amps.get(label, 0.0) + amp
        return StateVector(self.space, _clean(amps))

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "StateVector":
        c = complex(scalar)
        return StateVector(self.space, _clean({k: c * v for k, v in self.amps.items()}))

    __rmul__ = __mul__


def basis_state(space: Space, levels: Mapping[str, str]) -> StateVector:
    """Unit basis ket with every subsystem pinned to the given level."""
    return StateVector(space, {space.label(levels): 1.0 + 0.0j})


@dataclass(frozen=True)
class DensityMatrix:
    """Sparse density operator: map from (row, col) label pairs to entries."""

    space: Space
    entries: dict

    __post_init__ = _coerce_entries

    @classmethod
    def from_pure(cls, s: StateVector) -> "DensityMatrix":
        entries = {}
        for r, ar in s.amps.items():
            for c, ac in s.amps.items():
                entries[(r, c)] = ar * ac.conjugate()
        return cls(s.space, entries)

    def trace(self) -> float:
        t = sum(v for (r, c), v in self.entries.items() if r == c)
        return complex(t).real

    def entry(self, r: BasisLabel, c: BasisLabel) -> complex:
        return self.entries.get((r, c), 0.0 + 0.0j)

    def __add__(self, other: "DensityMatrix") -> "DensityMatrix":
        if self.space != other.space:
            raise SpaceMismatchError("cannot add density matrices on different spaces")
        entries = dict(self.entries)
        for k, v in other.entries.items():
            entries[k] = entries.get(k, 0.0) + v
        return DensityMatrix(self.space, _clean(entries))

    def __mul__(self, scalar) -> "DensityMatrix":
        c = complex(scalar)
        return DensityMatrix(self.space, _clean({k: c * v for k, v in self.entries.items()}))

    __rmul__ = __mul__


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearOperator:
    """Sparse operator acting on its declared subsystems only.

    ``entries[(row, col)]`` is the matrix element <row|O|col> over the
    operator's own (sub)space; when applied to a state on a larger space the
    identity on all other subsystems is implicit.
    """

    space: Space
    entries: dict

    __post_init__ = _coerce_entries

    @classmethod
    def from_dense(cls, space: Space, mat: np.ndarray, tol: float = 0.0) -> "LinearOperator":
        labels = list(space.labels())
        if mat.shape != (len(labels), len(labels)):
            raise SpaceMismatchError("matrix shape does not match space dimension")
        entries = {}
        for i, r in enumerate(labels):
            for j, c in enumerate(labels):
                if abs(mat[i, j]) > tol:
                    entries[(r, c)] = complex(mat[i, j])
        return cls(space, entries)


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------


def tensor(a: StateVector, b: StateVector) -> StateVector:
    """Tensor product of states on disjoint subsystem sets."""
    overlap = set(a.space.ids) & set(b.space.ids)
    if overlap:
        raise CompositionError(f"overlapping subsystem ids: {sorted(overlap)}")
    space = Space(a.space.subsystems + b.space.subsystems)
    amps = {}
    for la, va in a.amps.items():
        for lb, vb in b.amps.items():
            merged = tuple(sorted(la.factors + lb.factors))
            amps[BasisLabel(merged)] = va * vb
    return StateVector(space, amps)


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise SpaceMismatchError("inner product between states on different spaces")
    total = 0.0 + 0.0j
    for label in (a.amps if len(a.amps) <= len(b.amps) else b.amps):
        if label in a.amps and label in b.amps:
            total += a.amps[label].conjugate() * b.amps[label]
    return total


def apply(op: LinearOperator, s: StateVector) -> StateVector:
    """Matrix-vector product, identity implicit on undeclared subsystems."""
    op_ids = op.space.ids
    for sid, alpha in op.space.subsystems:
        if sid not in s.space.ids:
            raise SpaceMismatchError(f"operator subsystem {sid!r} absent from state space")
        if s.space.alphabet(sid) != alpha:
            raise SpaceMismatchError(f"alphabet mismatch on subsystem {sid!r}")
    cols: dict = {}   # column factors -> [(row factors, value), ...]
    for (r, c), v in op.entries.items():
        cols.setdefault(c.factors, []).append((r.factors, v))
    out: dict = {}
    for label, amp in s.amps.items():
        col = label.project(op_ids)
        for row, val in cols.get(col, ()):
            new = label.replaced(dict(row))
            out[new] = out.get(new, 0.0) + val * amp
    return StateVector(s.space, _clean(out))


def _split(label: BasisLabel, keep: set):
    keep_part, rest_part = [], []
    for f in label.factors:
        (keep_part if f[0] in keep else rest_part).append(f)
    return tuple(keep_part), tuple(rest_part)


def partial_trace(s, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over ``keep``, tracing out everything else.

    Accepts a StateVector or a DensityMatrix; the trace of the result equals
    the squared norm of the input state (or the trace of the input matrix).
    """
    keep = list(keep)
    if not keep:
        raise ValueError("empty keep set")
    keep_set = set(keep)
    missing = keep_set - set(s.space.ids)
    if missing:
        raise ValueError(f"unknown subsystem(s) {sorted(missing)}")
    sub = s.space.subspace(keep_set)

    entries: dict = {}
    if isinstance(s, StateVector):
        groups: dict = {}
        for label, amp in s.amps.items():
            kp, rp = _split(label, keep_set)
            groups.setdefault(rp, []).append((kp, amp))
        for members in groups.values():
            for kr, ar in members:
                for kc, ac in members:
                    key = (BasisLabel(kr), BasisLabel(kc))
                    entries[key] = entries.get(key, 0.0) + ar * ac.conjugate()
    elif isinstance(s, DensityMatrix):
        for (r, c), v in s.entries.items():
            kr, rr = _split(r, keep_set)
            kc, rc = _split(c, keep_set)
            if rr == rc:
                key = (BasisLabel(kr), BasisLabel(kc))
                entries[key] = entries.get(key, 0.0) + v
    else:
        raise TypeError("partial_trace expects a StateVector or DensityMatrix")
    return DensityMatrix(sub, _clean(entries))


def fidelity_pure(rho: DensityMatrix, target: StateVector, tol: float = 1e-10) -> float:
    """<target|rho|target> as a real number clipped to [0, 1].

    The target must be normalized; the value must be real and inside [0, 1]
    within ``tol`` slack (projector/trace arithmetic can stray by rounding).
    """
    if rho.space != target.space:
        raise SpaceMismatchError("fidelity between objects on different spaces")
    if abs(target.norm() - 1.0) > 1e-9:
        raise ValueError(f"target not normalized: |t| = {target.norm():.12g}")
    total = 0.0 + 0.0j
    for (r, c), v in rho.entries.items():
        tr = target.amps.get(r)
        if tr is None:
            continue
        tc = target.amps.get(c)
        if tc is None:
            continue
        total += tr.conjugate() * v * tc
    if abs(total.imag) > tol:
        raise ValueError(f"fidelity has non-real value {total:.3e}")
    val = total.real
    if val < -tol or val > 1.0 + tol:
        raise ValueError(f"fidelity {val:.12g} outside [0,1] beyond slack")
    return min(max(val, 0.0), 1.0)


def normalize(s: StateVector, floor: float = NORM_FLOOR) -> tuple[StateVector, float]:
    """Return (unit-norm state, original squared norm).

    Raises DegenerateNormError when the norm is at or below ``floor``; the
    caller is looking at a heralded-failure branch and must handle it.
    """
    n2 = s.norm_sq()
    n = math.sqrt(n2)
    if n <= floor:
        raise DegenerateNormError(f"norm {n:.3e} at or below floor {floor:.3e}")
    return (1.0 / n) * s, n2


def rename_subsystems(s: StateVector, mapping: Mapping[str, str]) -> StateVector:
    """Relabel subsystem ids (alphabets carried over), re-canonicalizing order."""
    old_ids = set(s.space.ids)
    for old in mapping:
        if old not in old_ids:
            raise ValueError(f"unknown subsystem {old!r}")
    new_ids = [mapping.get(sid, sid) for sid in s.space.ids]
    if len(set(new_ids)) != len(new_ids):
        raise CompositionError(f"subsystem rename collides: {sorted(new_ids)}")
    space = Space(tuple((mapping.get(sid, sid), alpha) for sid, alpha in s.space.subsystems))
    amps = {}
    for label, amp in s.amps.items():
        factors = tuple(sorted((mapping.get(sid, sid), lv) for sid, lv in label.factors))
        amps[BasisLabel(factors)] = amp
    return StateVector(space, amps)


# ---------------------------------------------------------------------------
# serialization and dense conversion
# ---------------------------------------------------------------------------


def state_to_json(s: StateVector, indent: int | None = None) -> str:
    """Deterministic JSON debug dump: entries sorted by label."""
    rows = []
    for label in sorted(s.amps, key=lambda l: l.factors):
        amp = s.amps[label]
        rows.append({"label": [list(f) for f in label.factors], "re": amp.real, "im": amp.imag})
    doc = {
        "space": [[sid, list(alpha)] for sid, alpha in s.space.subsystems],
        "amplitudes": rows,
    }
    return json.dumps(doc, indent=indent, sort_keys=True)


def to_dense(s: StateVector, index: Mapping[BasisLabel, int] | None = None) -> np.ndarray:
    """Dense vector in canonical label order (integrator use only).

    The caller may pass a prebuilt label index to avoid re-enumeration.
    """
    if index is None:
        index = {label: i for i, label in enumerate(s.space.labels())}
    vec = np.zeros(len(index), dtype=complex)
    for label, amp in s.amps.items():
        vec[index[label]] = amp
    return vec


def from_dense(space: Space, vec: np.ndarray, tol: float = 0.0) -> StateVector:
    amps = {}
    for i, label in enumerate(space.labels()):
        if abs(vec[i]) > tol:
            amps[label] = complex(vec[i])
    return StateVector(space, amps)


def operator_to_dense(op: LinearOperator, space: Space) -> np.ndarray:
    """Embed an operator into the full space as a dense matrix.

    Only meant for the small atom+cavity spaces used by the integrator; dense
    dimension is checked to stay tiny so the sparse design is not defeated.
    """
    if space.dim > 4096:
        raise ValueError(f"refusing dense conversion of dim-{space.dim} space")
    index = {label: i for i, label in enumerate(space.labels())}
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for label, j in index.items():
        for row, val in apply(op, StateVector(space, {label: 1.0})).amps.items():
            mat[index[row], j] = val
    return mat
