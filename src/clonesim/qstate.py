"""Labeled tensor-product states: sparse kets, dense density matrices.

Quantum states here live on a labeled tensor product of small subsystems
(atomic levels, cavity/photonic mode occupations).  Kets are sparse maps from
basis labels to complex amplitudes: a protocol state touches a handful of the
labels of its space.  Density matrices are dense (dim, dim) arrays, at most
``MAX_DM_DIM`` wide (the package builds none above 8x8), and operators are
dense matrices; both follow the canonical label order :func:`label_index`
gives, and kets cross to that layout through :func:`to_dense`/:func:`from_dense`.

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
from types import MappingProxyType
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
    "label_index",
    "to_dense",
    "from_dense",
    "MAX_DM_DIM",
]

NORM_FLOOR = 1e-14  # default degenerate-branch threshold for normalize()
MAX_DM_DIM = 512    # largest density-matrix dimension: 512**2 complex entries are 4 MiB


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
    """(sorted subsystems, their ids, dimension) of a raw layout, validated.

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
    return ordered, ids, math.prod(len(alpha) for _, alpha in ordered)


# a level missing from a label mapping (no alphabet holds it)
_MISSING = object()


@dataclass(frozen=True)
class Space:
    """Ordered collection of named subsystems with finite level alphabets.

    ``subsystems`` is a tuple of ``(id, alphabet)`` pairs.  The constructor
    canonicalizes the order (sorted by subsystem id) so any two spaces built
    from the same subsystems compare equal.  ``ids`` lists the subsystem ids
    in that order; ``dim`` is the product of the alphabet sizes.
    """

    subsystems: tuple[tuple[str, tuple[str, ...]], ...]
    ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = tuple(self.subsystems)
        try:
            ordered, ids, dim = _canonical(raw)
        except TypeError:   # unhashable alphabets (e.g. lists): validate uncached
            ordered, ids, dim = _canonical.__wrapped__(raw)
        self.__dict__.update(subsystems=ordered, ids=ids, dim=dim)

    def label(self, levels: Mapping[str, str]) -> "BasisLabel":
        """Build a basis label from a {subsystem id: level} mapping.

        The mapping must cover every subsystem of the space exactly.  An
        unknown subsystem is reported before a missing or bad level.
        """
        factors = []
        for sid, alpha in self.subsystems:
            lv = levels.get(sid, _MISSING)
            if lv not in alpha:
                self._refuse_unknown(levels)
                if lv is _MISSING:
                    raise ValueError(f"missing level for subsystem {sid!r}")
                raise ValueError(f"level {lv!r} not in alphabet of {sid!r}")
            factors.append((sid, lv))
        if len(levels) != len(factors):
            self._refuse_unknown(levels)
        return BasisLabel(tuple(factors))

    def _refuse_unknown(self, levels: Mapping[str, str]) -> None:
        extra = set(levels) - set(self.ids)
        if extra:
            raise ValueError(f"unknown subsystem(s) {sorted(extra)}")

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

    def __str__(self):
        return "|" + ",".join(f"{s}={lv}" for s, lv in self.factors) + ">"


def _clean(amps: dict) -> dict:
    return {k: v for k, v in amps.items() if v != 0.0}


@lru_cache(maxsize=64)
def label_index(space: Space) -> Mapping[BasisLabel, int]:
    """Read-only {label: position} in the mixed-radix order of ``space.labels()``.

    Cached per layout.  It enumerates the whole space, so it serves the
    spaces dense vectors and matrices cover: one above ``MAX_DM_DIM``
    dimensions raises ``ValueError`` before anything is enumerated.
    """
    if space.dim > MAX_DM_DIM:
        raise ValueError(f"space of dimension {space.dim} exceeds the cap of {MAX_DM_DIM}")
    return MappingProxyType({label: i for i, label in enumerate(space.labels())})


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

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.space != other.space:
            raise SpaceMismatchError("cannot add states on different spaces")
        amps = dict(self.amps)
        for label, amp in other.amps.items():
            amps[label] = amps.get(label, 0.0) + amp
        return _state(self.space, _clean(amps))

    def __sub__(self, other: "StateVector") -> "StateVector":
        return self + (-1.0) * other

    def __mul__(self, scalar) -> "StateVector":
        c = complex(scalar)
        return _state(self.space, _clean({k: c * v for k, v in self.amps.items()}))

    __rmul__ = __mul__


def _state(space: Space, amps: dict) -> StateVector:
    """Trusted constructor: ``amps`` already has label keys and complex values."""
    s = object.__new__(StateVector)
    s.__dict__.update(space=space, amps=amps)
    return s


@dataclass(frozen=True, init=False, eq=False)
class DensityMatrix:
    """Dense density operator: a read-only (dim, dim) complex array.

    Rows and columns follow the canonical label order of ``space``; the public
    constructor takes a sparse {(row label, col label): value} map.  A space
    above ``MAX_DM_DIM`` dimensions raises ``ValueError`` before anything is
    allocated.
    """

    space: Space
    matrix: np.ndarray

    def __init__(self, space: Space, entries: Mapping):
        index = label_index(space)      # refuses a space above the cap
        matrix = np.zeros((len(index), len(index)), dtype=complex)
        for (r, c), v in entries.items():
            if not (isinstance(r, BasisLabel) and isinstance(c, BasisLabel)):
                raise TypeError("entry keys must be (BasisLabel, BasisLabel) pairs")
            matrix[index[r], index[c]] = complex(v)
        matrix.flags.writeable = False
        self.__dict__.update(space=space, matrix=matrix)

    @classmethod
    def from_array(cls, space: Space, matrix: np.ndarray) -> "DensityMatrix":
        """Wrap a (dim, dim) array in canonical label order: kept, made read-only."""
        d = len(label_index(space))
        if matrix.shape != (d, d):
            raise ValueError(f"matrix of shape {matrix.shape} on a space of dimension {d}")
        matrix = matrix.astype(complex, copy=False)
        matrix.flags.writeable = False
        rho = object.__new__(cls)
        rho.__dict__.update(space=space, matrix=matrix)
        return rho

    @classmethod
    def from_pure(cls, s: StateVector) -> "DensityMatrix":
        """|s><s|: the reduction of ``s`` that keeps every subsystem."""
        return partial_trace(s, s.space.ids)

    @property
    def entries(self) -> Mapping:
        """Read-only {(row, col): value} of the non-zero entries, in canonical order."""
        labels = list(label_index(self.space))
        rows, cols = np.nonzero(self.matrix)
        values = self.matrix[rows, cols].tolist()
        return MappingProxyType({(labels[r], labels[c]): v
                                 for r, c, v in zip(rows.tolist(), cols.tolist(), values)})

    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def __add__(self, other: "DensityMatrix") -> "DensityMatrix":
        if self.space != other.space:
            raise SpaceMismatchError("cannot add density matrices on different spaces")
        return DensityMatrix.from_array(self.space, self.matrix + other.matrix)

    def __mul__(self, scalar) -> "DensityMatrix":
        return DensityMatrix.from_array(self.space, self.matrix * complex(scalar))

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
    return _state(space, amps)


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


@lru_cache(maxsize=256)
def _trace_plan(space: Space, keep: frozenset) -> tuple:
    """How to reduce a state on ``space`` to ``keep``, worked out once per layout.

    (kept subspace, kept-factor picker, traced-factor picker, its label
    index, the shape giving a matrix one row and one column axis per
    subsystem, and the einsum subscripts that trace it).
    """
    if not keep:
        raise ValueError("empty keep set")
    ids = space.ids
    sub = space.subspace(keep)      # raises on unknown ids
    index = label_index(sub)        # and above the cap
    kept = [i for i, sid in enumerate(ids) if sid in keep]
    traced = [i for i, sid in enumerate(ids) if sid not in keep]
    n = len(ids)
    dims = [len(alpha) for _, alpha in space.subsystems]
    # row axis i pairs with column axis n + i; a traced pair shares one subscript
    subscripts = list(range(n)) + [i if i in traced else n + i for i in range(n)]
    return (sub, _picker(kept), _picker(traced), index,
            tuple(dims + dims), subscripts, kept + [n + i for i in kept])


def partial_trace(s, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over ``keep``, tracing out everything else.

    Accepts a StateVector or a DensityMatrix; the trace of the result equals
    the squared norm of the input state (or the trace of the input matrix).
    A ket's amplitudes are grouped by their traced factors into the columns
    of a (dim(keep), groups) array A, and the result is A A^dagger, so a large
    sparse space never becomes dense.  A reduced dimension above ``MAX_DM_DIM``
    raises ``ValueError``.
    """
    if not isinstance(s, (StateVector, DensityMatrix)):
        raise TypeError("partial_trace expects a StateVector or DensityMatrix")
    sub, kept, traced, index, shape, subscripts, out = _trace_plan(s.space, frozenset(keep))
    if isinstance(s, DensityMatrix):
        reduced = np.einsum(s.matrix.reshape(shape), subscripts, out)
        return DensityMatrix.from_array(sub, reduced.reshape(sub.dim, sub.dim))
    groups: dict = {}
    m = np.zeros((sub.dim, len(s.amps)), dtype=complex)   # column per traced group
    for label, amp in s.amps.items():
        f = label.factors
        # (factors,) is the kept label: a BasisLabel is the 1-tuple of its factors
        m[index[(kept(f),)], groups.setdefault(traced(f), len(groups))] = amp
    m = m[:, :len(groups)]
    # einsum, not a BLAS product: a process's first complex gemm call
    # allocates ~0.4 MB of buffers that its peak RSS then carries
    return DensityMatrix.from_array(sub, np.einsum("ig,jg->ij", m, m.conj()))


def fidelity_pure(rho: DensityMatrix, target: StateVector, tol: float = 1e-10) -> float:
    """<target|rho|target> as a real number clipped to [0, 1].

    The target must be normalized; the value must be real and inside [0, 1]
    within ``tol`` slack (projector/trace arithmetic can stray by rounding).
    """
    if rho.space != target.space:
        raise SpaceMismatchError("fidelity between objects on different spaces")
    if abs(target.norm() - 1.0) > 1e-9:
        raise ValueError(f"target not normalized: |t| = {target.norm():.12g}")
    t = to_dense(target, label_index(rho.space))
    total = complex(np.vdot(t, rho.matrix.dot(t)))
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
    return _state(space, amps)


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
    values = np.asarray(vec, dtype=complex).tolist()
    return _state(space, {label: values[i] for label, i in index.items() if values[i] != 0})
