"""Optimal symmetric 1->2 qubit cloning by singlet-complement projection.

The algebra: prepare the input qubit (on logical qubit 1) next to a two-qubit
singlet ancilla (qubits 2, 3) and project qubits 1, 2 onto the complement of
their singlet,

    P = (I_12 - |psi->_12 <psi-|_12) x I_3 .

The surviving branch carries two optimal symmetric clones on qubits 1, 2 and
the optimal anti-clone (universal-NOT output) on qubit 3:

    clone fidelity          = 5/6   (both clones, any input)
    anti-clone fidelity     = 2/3   against  b* |0> - a* |1>
    branch probability      = 3/4   (input independent)

These constants are *derived* here, not assumed: tests rebuild them through
this module and through an independent closed-form expansion
(:func:`closed_form_output`) and require the two routes to agree.

P is a dense 8x8 matrix in the register's canonical label order, and the
oracle fidelities score the projected branch as a plain 8-vector in that
order; :func:`clone` wraps the same vector as the register's ket.  No
dynamics is involved.  This module doubles as the machine-checkable oracle
for the photonic protocol in :mod:`clonesim.protocol`.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .qstate import (
    Space,
    StateVector,
    _checked_norm,
    _fidelity,
    fidelity_pure,  # noqa: F401  perfbench traces calls made through cloner.fidelity_pure
    partial_trace,  # noqa: F401  perfbench traces calls made through cloner.partial_trace
    tensor,  # noqa: F401  perfbench traces calls made through cloner.tensor
)

__all__ = [
    "QUBIT_LEVELS",
    "InputQubit",
    "CloneOutput",
    "qubit_space",
    "qubit_state",
    "singlet",
    "projector_p123",
    "clone",
    "closed_form_output",
    "clone_fidelity",
    "unot_fidelity",
    "orthogonal_state",
    "haar_qubit",
]

QUBIT_LEVELS = ("0", "1")

# canonical wire names for the three-qubit register
Q1, Q2, Q3 = "q1", "q2", "q3"


@dataclass(frozen=True)
class InputQubit:
    """Pure qubit amplitudes (a, b) with |a|^2 + |b|^2 = 1."""

    a: complex
    b: complex

    def __post_init__(self):
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b", complex(self.b))
        n = abs(self.a) ** 2 + abs(self.b) ** 2
        if not abs(n - 1.0) <= 1e-12:     # also refuses nan
            raise ValueError(f"|a|^2 + |b|^2 = {n:.12g}, expected 1")

    @classmethod
    def normalized(cls, a: complex, b: complex) -> "InputQubit":
        """Build from unnormalized amplitudes; rejects the zero vector and
        amplitudes whose squares overflow (above ~1.3e154)."""
        try:
            n = math.sqrt(abs(complex(a)) ** 2 + abs(complex(b)) ** 2)
        except OverflowError:
            raise ValueError("input amplitudes too large to normalize") from None
        if n < 1e-12:
            raise ValueError("cannot normalize zero amplitudes")
        return cls(complex(a) / n, complex(b) / n)


@dataclass(frozen=True)
class CloneOutput:
    """Post-projection register state: the clones on q1 and q2, the
    anti-clone on q3 (trace out the others to read one)."""

    state: StateVector          # normalized three-qubit state (q1, q2, q3)
    branch_prob: float          # squared norm of the projected branch


def qubit_space(*ids: str) -> Space:
    return Space(tuple((sid, QUBIT_LEVELS) for sid in ids))


def qubit_state(sid: str, a: complex, b: complex) -> StateVector:
    space = qubit_space(sid)
    return StateVector(space, {
        space.label({sid: "0"}): a,
        space.label({sid: "1"}): b,
    })


def singlet(id1: str = Q2, id2: str = Q3) -> StateVector:
    """(|01> - |10>)/sqrt(2) on the named qubit pair."""
    space = qubit_space(id1, id2)
    r = 1.0 / math.sqrt(2.0)
    return StateVector(space, {
        space.label({id1: "0", id2: "1"}): r,
        space.label({id1: "1", id2: "0"}): -r,
    })


@functools.cache
def projector_p123() -> np.ndarray:
    """(I_12 - |psi->_12 <psi-|_12) x I_3 as an 8x8 matrix.

    Rows and columns follow the canonical label order of
    ``qubit_space(q1, q2, q3)``.  Rank 6, idempotent, Hermitian; annihilates
    exactly the singlet sector of qubits 1, 2.  Built once per process and
    read-only: callers share the one matrix.
    """
    s = singlet(Q1, Q2).vector
    mat = np.eye(8) - np.kron(np.outer(s, s.conj()), np.eye(2))
    mat.flags.writeable = False
    return mat


@functools.lru_cache(maxsize=32)
def _clone_vector(q: InputQubit) -> tuple[np.ndarray, float]:
    """The projection branch as a unit 8-vector, and its probability.

    |q>_1 x |psi->_23 is written out in the order of ``qubit_space(q1, q2,
    q3)`` (index 4 q1 + 2 q2 + q3), projected, and renormalized under the
    floor of ``qstate.normalize``.  Memoized per input, so both oracle
    fidelities of one input share one branch; the vector is read-only.
    """
    r = 1.0 / math.sqrt(2.0)
    a, b = q.a, q.b
    pre = np.array([0.0, a * r, a * -r, 0.0, 0.0, b * r, b * -r, 0.0])
    projected = projector_p123() @ pre
    n2 = float(np.vdot(projected, projected).real)
    vec = projected * (1.0 / _checked_norm(n2))
    vec.flags.writeable = False
    return vec, n2


def clone(q: InputQubit) -> CloneOutput:
    """Run the projection branch for one input qubit.

    Composes |q>_1 x |psi->_23, applies the singlet-complement projector on
    qubits 1, 2 and renormalizes the surviving branch; the ket of the
    vector the oracle fidelities score.
    """
    vec, branch_prob = _clone_vector(q)
    return CloneOutput(state=StateVector.from_array(qubit_space(Q1, Q2, Q3), vec),
                       branch_prob=branch_prob)


def closed_form_output(q: InputQubit) -> StateVector:
    """Closed-form normalized output of the projection branch.

    sqrt(2/3) [ (a|00> + b/2 (|01>+|10>))|1>  -  (b|11> + a/2 (|01>+|10>))|0> ]

    Independent of :func:`clone` (no projector application); tests require
    |<closed_form|clone.state>| = 1 so the two derivations cross-check.
    """
    space = qubit_space(Q1, Q2, Q3)
    a, b = q.a, q.b
    c = math.sqrt(2.0 / 3.0)
    amps = {
        space.label({Q1: "0", Q2: "0", Q3: "1"}): c * a,
        space.label({Q1: "0", Q2: "1", Q3: "1"}): c * b / 2.0,
        space.label({Q1: "1", Q2: "0", Q3: "1"}): c * b / 2.0,
        space.label({Q1: "1", Q2: "1", Q3: "0"}): -c * b,
        space.label({Q1: "0", Q2: "1", Q3: "0"}): -c * a / 2.0,
        space.label({Q1: "1", Q2: "0", Q3: "0"}): -c * a / 2.0,
    }
    return StateVector(space, {k: v for k, v in amps.items() if v != 0.0})


def orthogonal_state(q: InputQubit, sid: str = Q3) -> StateVector:
    """The flipped target b*|0> - a*|1> the anti-clone is scored against."""
    return qubit_state(sid, q.b.conjugate(), -q.a.conjugate())


def clone_fidelity(q: InputQubit) -> float:
    """Fidelity of clone 1 against the input (clone 2 is identical by symmetry)."""
    v = _clone_vector(q)[0].reshape(2, 4)       # [q1, (q2, q3)]
    return _fidelity(np.einsum("ig,jg->ij", v, v.conj()), np.array([q.a, q.b]))


def unot_fidelity(q: InputQubit) -> float:
    """Fidelity of the anti-clone against the orthogonal state."""
    v = _clone_vector(q)[0].reshape(4, 2)       # [(q1, q2), q3]
    return _fidelity(np.einsum("gi,gj->ij", v, v.conj()),
                     np.array([q.b.conjugate(), -q.a.conjugate()]))


def haar_qubit(rng: np.random.Generator) -> InputQubit:
    """Haar-random pure qubit: cos(theta) uniform on [-1, 1], phase uniform.

    a = cos(theta/2), b = e^{i phi} sin(theta/2).
    """
    cos_theta = rng.uniform(-1.0, 1.0)
    theta = math.acos(cos_theta)
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return InputQubit(math.cos(theta / 2.0), np.exp(1j * phi) * math.sin(theta / 2.0))
