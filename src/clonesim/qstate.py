"""Sparse labeled tensor-product states.

Quantum states here live on a labeled tensor product of small subsystems
(atomic levels, cavity/photonic mode occupations).  Amplitudes are kept as a
sparse map from basis labels to complex numbers: a protocol state touches a
handful of the labels of its space (a few dozen dense dimensions at most).
Operators are dense numpy matrices over a label index {label: position}
(the cloner's projector, the integrator's Hamiltonian pieces); states cross
to and from that layout through :func:`to_dense` and :func:`from_dense`.

A subsystem is identified by a string id and carries a finite level alphabet,
e.g. ``("atomB", ("gp0", "gL", "gR", "e0"))`` or ``("A:H", ("0", "1"))`` for a
photonic mode.  Subsystem order within a space is canonical (sorted by id), so
two states over the same subsystems always agree on label layout.

All values are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from operator import itemgetter
from typing import Iterable, Mapping, NamedTuple

import numpy as np

__all__ = [
    "CompositionError",
    "SpaceMismatchError",
    "DegenerateNormError",
    "Space",
    "BasisLabel",
    "StateVector",
    "DensityMatrix",
    "tensor",
    "inner",
    "partial_trace",
    "fidelity_pure",
    "normalize",
    "rename_subsystems",
    "to_dense",
    "from_dense",
]

NORM_FLOOR = 1e-14  # default degenerate-branch threshold for normalize()


class CompositionError(ValueError):
    """Tensor composition over overlapping subsystem ids."""


class SpaceMismatchError(ValueError):
    """Operation between states on different spaces."""


class DegenerateNormError(ValueError):
    """Norm below the degenerate-branch floor."""


# ---------------------------------------------------------------------------
# spaces and labels
# ---------------------------------------------------------------------------


@lru_cache(maxsize=256)
def _canonical(subsystems: tuple) -> tuple:
    """(sorted subsystems, their ids) of a raw layout, validated.

    Pure in its argument, so each distinct layout is sorted and checked once
    per process; a bad layout raises on every call (exceptions are not
    cached).
    """
    ordered = tuple(sorted(((sid, tuple(alpha)) for sid, alpha in subsystems)))
    ids = tuple(sid for sid, _ in ordered)
    if len(set(ids)) != len(ids):
        raise CompositionError(f"duplicate subsystem ids in space: {list(ids)}")
    for sid, alpha in ordered:
        if not alpha:
            raise ValueError(f"subsystem {sid!r} has an empty alphabet")
        if len(set(alpha)) != len(alpha):
            raise ValueError(f"subsystem {sid!r} has duplicate levels: {alpha}")
    return ordered, ids


@dataclass(frozen=True)
class Space:
    """Ordered collection of named subsystems with finite level alphabets.

    ``subsystems`` is a tuple of ``(id, alphabet)`` pairs.  The constructor
    canonicalizes the order (sorted by subsystem id) so any two spaces built
    from the same subsystems compare equal.  ``ids`` lists the subsystem ids
    in that order.
    """

    subsystems: tuple[tuple[str, tuple[str, ...]], ...]
    ids: tuple[str, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = tuple(self.subsystems)
        try:
            ordered, ids = _canonical(raw)
        except TypeError:   # unhashable alphabets (e.g. lists): validate uncached
            ordered, ids = _canonical.__wrapped__(raw)
        object.__setattr__(self, "subsystems", ordered)
        object.__setattr__(self, "ids", ids)

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


class BasisLabel(NamedTuple):
    """Tensor basis label: a tuple of (subsystem id, level) factors.

    Factor order is canonical (sorted by subsystem id); two labels with equal
    factors compare equal and hash equal.  A named tuple, so hashing and
    comparison run in C.
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


@dataclass(frozen=True)
class DensityMatrix:
    """Sparse density operator: map from (row, col) label pairs to entries."""

    space: Space
    entries: dict

    def __post_init__(self):
        coerced = {}
        for (r, c), v in self.entries.items():
            if not (isinstance(r, BasisLabel) and isinstance(c, BasisLabel)):
                raise TypeError("entry keys must be (BasisLabel, BasisLabel) pairs")
            coerced[(r, c)] = complex(v)
        object.__setattr__(self, "entries", coerced)

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


def _picker(positions: list):
    """Factor tuple -> the factors at ``positions``, always as a tuple."""
    if len(positions) == 1:
        i = positions[0]
        return lambda factors: (factors[i],)
    if not positions:
        return lambda factors: ()
    return itemgetter(*positions)


def partial_trace(s, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over ``keep``, tracing out everything else.

    Accepts a StateVector or a DensityMatrix; the trace of the result equals
    the squared norm of the input state (or the trace of the input matrix).
    Labels follow their space's canonical factor order, so each one is split
    by factor position.
    """
    keep = list(keep)
    if not keep:
        raise ValueError("empty keep set")
    keep_set = set(keep)
    ids = s.space.ids
    missing = keep_set - set(ids)
    if missing:
        raise ValueError(f"unknown subsystem(s) {sorted(missing)}")
    sub = s.space.subspace(keep_set)
    kept = _picker([i for i, sid in enumerate(ids) if sid in keep_set])
    traced = _picker([i for i, sid in enumerate(ids) if sid not in keep_set])

    entries: dict = {}
    if isinstance(s, StateVector):
        groups: dict = {}
        for label, amp in s.amps.items():
            f = label.factors
            groups.setdefault(traced(f), []).append((BasisLabel(kept(f)), amp))
        for members in groups.values():
            for kr, ar in members:
                for kc, ac in members:
                    key = (kr, kc)
                    entries[key] = entries.get(key, 0.0) + ar * ac.conjugate()
    elif isinstance(s, DensityMatrix):
        for (r, c), v in s.entries.items():
            fr, fc = r.factors, c.factors
            if traced(fr) == traced(fc):
                key = (BasisLabel(kept(fr)), BasisLabel(kept(fc)))
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
# dense conversion
# ---------------------------------------------------------------------------


def to_dense(s: StateVector, index: Mapping[BasisLabel, int]) -> np.ndarray:
    """Dense vector over a label index {label: position}."""
    vec = np.zeros(len(index), dtype=complex)
    for label, amp in s.amps.items():
        vec[index[label]] = amp
    return vec


def from_dense(space: Space, vec: np.ndarray, index: Mapping[BasisLabel, int]) -> StateVector:
    """Inverse of :func:`to_dense`: the non-zero entries of ``vec`` as a state."""
    return StateVector(space, {label: vec[i] for label, i in index.items() if vec[i] != 0})
