"""Labeled tensor-product states: kets and density matrices as dense arrays.

Quantum states here live on a labeled tensor product of small subsystems
(atomic levels, cavity/photonic mode occupations).  A ket is a read-only
complex vector and a density matrix a read-only (dim, dim) array, both in
the canonical (mixed-radix) label order of their space; a ket holds at most
``MAX_DM_DIM**2`` entries, the 4 MiB a capped matrix holds, and a density
matrix is at most ``MAX_DM_DIM`` wide (the package builds none above 8x8).
A label's position follows from per-subsystem strides worked out once per
layout; labels are built only where a reader asks for them
(``StateVector.amps``, ``DensityMatrix.entries``).

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
    """(sorted subsystems, their ids, dimension, shape, offsets) of a raw
    layout of (id, alphabet tuple) pairs, validated.

    ``offsets`` pairs each id with {level: level index x stride}, the stride
    being the product of the alphabet sizes after it, so a label's flat
    position in the mixed-radix order is the sum of its levels' offsets.
    Pure in its argument, so each distinct layout is sorted and checked once
    per process; a bad layout raises on every call (exceptions are not
    cached).
    """
    ordered = tuple(sorted(subsystems))
    ids = tuple(sid for sid, _ in ordered)
    if len(set(ids)) != len(ids):
        raise CompositionError(f"duplicate subsystem ids in space: {list(ids)}")
    for sid, alpha in ordered:
        if not alpha:
            raise ValueError(f"subsystem {sid!r} has an empty alphabet")
        if len(set(alpha)) != len(alpha):
            raise ValueError(f"subsystem {sid!r} has duplicate levels: {alpha}")
    shape = tuple(len(alpha) for _, alpha in ordered)
    strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
    offsets = tuple((sid, {lv: i * stride for i, lv in enumerate(alpha)})
                    for (sid, alpha), stride in zip(ordered, strides))
    return ordered, ids, math.prod(shape), shape, offsets


# a level missing from a label mapping (no alphabet holds it)
_MISSING = object()


@dataclass(frozen=True)
class Space:
    """Ordered collection of named subsystems with finite level alphabets.

    ``subsystems`` is a tuple of ``(id, alphabet)`` pairs.  The constructor
    canonicalizes the order (sorted by subsystem id) so any two spaces built
    from the same subsystems compare equal.  ``ids`` lists the subsystem ids
    in that order; ``shape`` holds the alphabet sizes and ``dim`` their
    product.
    """

    subsystems: tuple[tuple[str, tuple[str, ...]], ...]
    ids: tuple[str, ...] = field(init=False, repr=False, compare=False)
    dim: int = field(init=False, repr=False, compare=False)
    shape: tuple[int, ...] = field(init=False, repr=False, compare=False)
    offsets: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        raw = tuple((sid, tuple(alpha)) for sid, alpha in self.subsystems)
        ordered, ids, dim, shape, offsets = _canonical(raw)
        self.__dict__.update(subsystems=ordered, ids=ids, dim=dim, shape=shape,
                             offsets=offsets)

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


def _position(space: Space, label: BasisLabel) -> int:
    """Flat position of ``label`` in the canonical order of ``space``.

    A label of another space (other subsystems, or a level outside an
    alphabet) raises ``SpaceMismatchError``.
    """
    factors = label.factors
    if len(factors) == len(space.offsets):
        pos = 0
        for (sid, lv), (own, offsets) in zip(factors, space.offsets):
            if sid != own or lv not in offsets:
                break
            pos += offsets[lv]
        else:
            return pos
    raise SpaceMismatchError(f"label {label} is not a label of the space {list(space.ids)}")


def _labels_at(space: Space, flat: Iterable[int]) -> list:
    """The basis labels at flat positions of ``space``'s canonical order."""
    labels = []
    for pos in flat:
        factors = []
        for sid, alpha in reversed(space.subsystems):
            pos, i = divmod(pos, len(alpha))
            factors.append((sid, alpha[i]))
        labels.append(BasisLabel(tuple(reversed(factors))))
    return labels


def _capped(dim: int, cap: int, what: str) -> int:
    """``dim``, refused with ``ValueError`` above ``cap``."""
    if dim > cap:
        raise ValueError(f"{what} of dimension {dim} exceeds the cap of {cap}")
    return dim


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------


@dataclass(frozen=True, init=False, eq=False)
class StateVector:
    """Ket: a read-only complex vector in the canonical label order of ``space``.

    The public constructor takes a sparse {label: amplitude} map.  Amplitudes
    may be sub-normalized (projection branches) and raw operator applications
    may exceed unit norm; physical protocol states are validated where that
    matters rather than in the constructor.  A space above ``MAX_DM_DIM**2``
    dimensions raises ``ValueError`` before anything is allocated.
    """

    space: Space
    vector: np.ndarray

    def __init__(self, space: Space, amps: Mapping):
        vector = np.zeros(_capped(space.dim, MAX_DM_DIM ** 2, "ket space"), dtype=complex)
        for label, amp in amps.items():
            if not isinstance(label, BasisLabel):
                raise TypeError("amplitude keys must be BasisLabel instances")
            vector[_position(space, label)] = complex(amp)
        vector.flags.writeable = False
        self.__dict__.update(space=space, vector=vector)

    @classmethod
    def from_array(cls, space: Space, vector: np.ndarray) -> "StateVector":
        """Wrap a (dim,) array in canonical label order: kept, made read-only."""
        d = _capped(space.dim, MAX_DM_DIM ** 2, "ket space")
        if vector.shape != (d,):
            raise ValueError(f"vector of shape {vector.shape} on a space of dimension {d}")
        vector = vector.astype(complex, copy=False)
        vector.flags.writeable = False
        s = object.__new__(cls)
        s.__dict__.update(space=space, vector=vector)
        return s

    @property
    def amps(self) -> Mapping:
        """Read-only {label: amplitude} of the non-zero entries, in canonical order."""
        (where,) = np.nonzero(self.vector)
        return MappingProxyType(dict(zip(_labels_at(self.space, where.tolist()),
                                         self.vector[where].tolist())))

    def norm_sq(self) -> float:
        return float(np.vdot(self.vector, self.vector).real)

    def __add__(self, other: "StateVector") -> "StateVector":
        if self.space != other.space:
            raise SpaceMismatchError("cannot add states on different spaces")
        return StateVector.from_array(self.space, self.vector + other.vector)

    def __mul__(self, scalar) -> "StateVector":
        return StateVector.from_array(self.space, self.vector * complex(scalar))

    __rmul__ = __mul__


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
        d = _capped(space.dim, MAX_DM_DIM, "space")
        matrix = np.zeros((d, d), dtype=complex)
        for (r, c), v in entries.items():
            if not (isinstance(r, BasisLabel) and isinstance(c, BasisLabel)):
                raise TypeError("entry keys must be (BasisLabel, BasisLabel) pairs")
            matrix[_position(space, r), _position(space, c)] = complex(v)
        matrix.flags.writeable = False
        self.__dict__.update(space=space, matrix=matrix)

    @classmethod
    def from_array(cls, space: Space, matrix: np.ndarray) -> "DensityMatrix":
        """Wrap a (dim, dim) array in canonical label order: kept, made read-only."""
        d = _capped(space.dim, MAX_DM_DIM, "space")
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
        labels = list(self.space.labels())
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
    """Tensor product of states on disjoint subsystem sets.

    The outer product of the two vectors, its axes permuted into sorted-id
    order.  A product above ``MAX_DM_DIM**2`` entries raises ``ValueError``
    before it is formed.
    """
    overlap = set(a.space.ids) & set(b.space.ids)
    if overlap:
        raise CompositionError(f"overlapping subsystem ids: {sorted(overlap)}")
    space = Space(a.space.subsystems + b.space.subsystems)
    _capped(space.dim, MAX_DM_DIM ** 2, "ket space")
    ids = a.space.ids + b.space.ids
    outer = np.multiply.outer(a.vector, b.vector).reshape(a.space.shape + b.space.shape)
    order = sorted(range(len(ids)), key=ids.__getitem__)
    return StateVector.from_array(space, outer.transpose(order).reshape(-1))


def inner(a: StateVector, b: StateVector) -> complex:
    """<a|b>, conjugate-linear in the first argument."""
    if a.space != b.space:
        raise SpaceMismatchError("inner product between states on different spaces")
    return complex(np.vdot(a.vector, b.vector))


@lru_cache(maxsize=256)
def _trace_plan(space: Space, keep: frozenset) -> tuple:
    """How to reduce a state on ``space`` to ``keep``, worked out once per layout.

    (kept subspace, axis shape, einsum subscripts of the row axes, of the
    column axes and of the result), one axis per subsystem of more than one
    level (the others change nothing, and einsum takes only 52 subscripts):
    row axis i pairs with column axis n + i, and a traced pair shares one
    subscript.
    """
    if not keep:
        raise ValueError("empty keep set")
    sub = space.subspace(keep)      # raises on unknown ids
    _capped(sub.dim, MAX_DM_DIM, "reduced space")
    axes = [(sid in keep, size) for sid, size in zip(space.ids, space.shape) if size > 1]
    n = len(axes)
    kept = [i for i, (is_kept, _) in enumerate(axes) if is_kept]
    cols = [n + i if is_kept else i for i, (is_kept, _) in enumerate(axes)]
    return (sub, tuple(size for _, size in axes), list(range(n)), cols,
            kept + [n + i for i in kept])


def partial_trace(s, keep: Iterable[str]) -> DensityMatrix:
    """Reduced density matrix over ``keep``, tracing out everything else.

    Accepts a StateVector or a DensityMatrix; the trace of the result equals
    the squared norm of the input state (or the trace of the input matrix).
    Either way it is one einsum over the array reshaped to one axis per
    subsystem (a matrix: a row and a column axis each), on a plan cached per
    layout.  A reduced dimension above ``MAX_DM_DIM`` raises ``ValueError``.
    """
    if not isinstance(s, (StateVector, DensityMatrix)):
        raise TypeError("partial_trace expects a StateVector or DensityMatrix")
    sub, shape, rows, cols, out = _trace_plan(s.space, frozenset(keep))
    if isinstance(s, DensityMatrix):
        reduced = np.einsum(s.matrix.reshape(shape + shape), rows + cols, out)
    else:
        # einsum, not a BLAS product: a process's first complex gemm call
        # allocates ~0.4 MB of buffers that its peak RSS then carries
        v = s.vector.reshape(shape)
        reduced = np.einsum(v, rows, v.conj(), cols, out)
    return DensityMatrix.from_array(sub, reduced.reshape(sub.dim, sub.dim))


def _fidelity(matrix: np.ndarray, t0: complex, t1: complex, tol: float = 1e-10) -> float:
    """<t|matrix|t>, clipped to [0, 1], of a 2x2 matrix and the qubit t = (t0, t1).

    Python float arithmetic on ``matrix.tolist()``, with no numpy call on
    the qubit.  With t = (a + ib, c + id) the real part is twelve terms, a
    matrix part times the exact leading part of a pair product (aa, bb, cc,
    dd, ac, bd, ad, bc), plus one for the pairs' small rests: each rounds
    once and ``math.fsum`` adds them exactly.  For a positive unit-trace
    matrix and a unit t their magnitudes sum to at most (1 + sqrt 2)/2, so
    a value below 1 is within 1.71 * 2**-53 of exact.
    ``t`` must be normalized; the value must be real and inside [0, 1]
    within ``tol`` slack (projector/trace arithmetic can stray by rounding).
    Each check is written so that nan fails it.
    """
    a, b, c, d = t0.real, t0.imag, t1.real, t1.imag
    n = math.hypot(a, b, c, d)
    if not abs(n - 1.0) <= 1e-9:
        raise ValueError(f"target not normalized: |t| = {n:.12g}")
    (m00, m01), (m10, m11) = matrix.tolist()
    r00, r11, r01, i01, r10, i10 = m00.real, m11.real, m01.real, m01.imag, m10.real, m10.imag
    # Veltkamp's split (at 2**27 + 1) leaves each half 26 bits, so xh*yh is exact; the
    # rest xh*yl + xl*y is ~2**-26 of x*y, so the weighted rests share one term
    ah, bh = (s := 134217729.0 * a) - (s - a), (s := 134217729.0 * b) - (s - b)
    ch, dh = (s := 134217729.0 * c) - (s - c), (s := 134217729.0 * d) - (s - d)
    al, bl, cl, dl = a - ah, b - bh, c - ch, d - dh
    aa, bb, cc, dd = ah * ah, bh * bh, ch * ch, dh * dh
    ac, bd, ad, bc = ah * ch, bh * dh, ah * dh, bh * ch
    rest = (r00 * (al * (ah + a) + bl * (bh + b)) + r11 * (cl * (ch + c) + dl * (dh + d))
            + (r01 + r10) * (ah * cl + al * c + bh * dl + bl * d)
            + (i10 - i01) * (ah * dl + al * d - bh * cl - bl * c))
    val = math.fsum((r00 * aa, r00 * bb, r11 * cc, r11 * dd, r01 * ac, r01 * bd, r10 * ac,
                     r10 * bd, i10 * ad, i01 * bc, -i10 * bc, -i01 * ad, rest))
    imag = (m00.imag * (aa + bb) + m11.imag * (cc + dd) + (i01 + i10) * (ac + bd)
            + (r01 - r10) * (ad - bc))
    if not abs(imag) <= tol:
        raise ValueError(f"fidelity has non-real value {complex(val, imag):.3e}")
    if not -tol <= val <= 1.0 + tol:
        raise ValueError(f"fidelity {val:.12g} outside [0,1] beyond slack")
    return min(max(val, 0.0), 1.0)


def fidelity_pure(rho: DensityMatrix, target: StateVector, tol: float = 1e-10) -> float:
    """<target|rho|target> of a single-qubit target, a real number clipped to [0, 1].

    The labeled form of :func:`_fidelity`, which holds the checks; a target
    of any other dimension raises ``ValueError``.
    """
    if rho.space != target.space:
        raise SpaceMismatchError("fidelity between objects on different spaces")
    if target.space.dim != 2:
        raise ValueError(f"fidelity_pure scores a single qubit; the target has "
                         f"dimension {target.space.dim}")
    t0, t1 = target.vector.tolist()
    return _fidelity(rho.matrix, t0, t1, tol)


def _checked_norm(n2: float, floor: float = NORM_FLOOR) -> float:
    """sqrt(n2), refused at or below ``floor`` (DegenerateNormError: a
    heralded-failure branch) and when nan (a plain ValueError, which no
    caller may take for a failed herald)."""
    n = math.sqrt(n2)
    if math.isnan(n):
        raise ValueError("norm is nan")
    if n <= floor:
        raise DegenerateNormError(f"norm {n:.3e} at or below floor {floor:.3e}")
    return n


def normalize(s: StateVector, floor: float = NORM_FLOOR) -> tuple[StateVector, float]:
    """Return (unit-norm state, original squared norm).

    Raises DegenerateNormError when the norm is at or below ``floor``; the
    caller is looking at a heralded-failure branch and must handle it.  A nan
    norm raises a plain ValueError.
    """
    n2 = s.norm_sq()
    return (1.0 / _checked_norm(n2, floor)) * s, n2
