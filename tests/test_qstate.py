"""Sparse labeled state layer: composition, trace, fidelity, dense round trips."""

import math

import numpy as np
import pytest

from clonesim.qstate import (
    CompositionError,
    DegenerateNormError,
    DensityMatrix,
    Space,
    SpaceMismatchError,
    StateVector,
    apply,
    basis_state,
    fidelity_pure,
    inner,
    normalize,
    operator_to_dense,
    partial_trace,
    rename_subsystems,
    state_to_json,
    tensor,
    to_dense,
)
from clonesim.cloner import projector_p123, qubit_space, qubit_state, singlet


def test_space_order_is_canonical():
    s1 = Space((("b", ("0", "1")), ("a", ("x", "y"))))
    s2 = Space((("a", ("x", "y")), ("b", ("0", "1"))))
    assert s1 == s2
    assert s1.ids == ("a", "b")


def test_space_accepts_list_alphabets():
    # lists are unhashable, so this layout is validated without the memo
    assert Space([["b", ["0", "1"]], ("a", ["x", "y"])]) == Space((("a", ("x", "y")),
                                                                   ("b", ("0", "1"))))


def test_space_rejects_duplicate_ids():
    # a bad layout raises on every construction, not only the first
    for _ in range(2):
        with pytest.raises(CompositionError):
            Space((("a", ("0",)), ("a", ("1",))))


def test_label_must_cover_every_subsystem():
    sp = qubit_space("q1", "q2")
    with pytest.raises(ValueError):
        sp.label({"q1": "0"})
    with pytest.raises(ValueError):
        sp.label({"q1": "0", "q2": "0", "q9": "0"})
    with pytest.raises(ValueError):
        sp.label({"q1": "2", "q2": "0"})


def test_tensor_rejects_shared_subsystem():
    a = qubit_state("q1", 1.0, 0.0)
    b = qubit_state("q1", 0.0, 1.0)
    with pytest.raises(CompositionError):
        tensor(a, b)


def test_inner_is_conjugate_symmetric():
    a = qubit_state("q1", 0.6, 0.8j)
    b = qubit_state("q1", 1 / math.sqrt(2), -1 / math.sqrt(2))
    assert inner(a, b) == pytest.approx(np.conj(inner(b, a)))


def test_inner_rejects_space_mismatch():
    with pytest.raises(SpaceMismatchError):
        inner(qubit_state("q1", 1.0, 0.0), qubit_state("q2", 1.0, 0.0))


def test_partial_trace_of_product_state_is_pure():
    s = tensor(qubit_state("q1", 0.6, 0.8), qubit_state("q2", 1.0, 0.0))
    rho = partial_trace(s, ["q1"])
    assert fidelity_pure(rho, qubit_state("q1", 0.6, 0.8)) == pytest.approx(1.0, abs=1e-12)


def test_partial_trace_of_singlet_is_maximally_mixed():
    rho = partial_trace(singlet("q1", "q2"), ["q1"])
    for a, b in ((1.0, 0.0), (0.0, 1.0), (1 / math.sqrt(2), 1 / math.sqrt(2))):
        assert fidelity_pure(rho, qubit_state("q1", a, b)) == pytest.approx(0.5, abs=1e-12)


def test_fidelity_requires_normalized_target():
    rho = partial_trace(qubit_state("q1", 1.0, 0.0), ["q1"])
    bad = StateVector(qubit_space("q1"), {qubit_space("q1").label({"q1": "0"}): 0.5})
    with pytest.raises(ValueError):
        fidelity_pure(rho, bad)


def test_normalize_returns_weight():
    s = qubit_state("q1", 0.6, 0.8) * 0.5
    unit, weight = normalize(s)
    assert weight == pytest.approx(0.25, abs=1e-15)
    assert unit.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_normalize_rejects_zero():
    zero = StateVector(qubit_space("q1"), {})
    with pytest.raises(DegenerateNormError):
        normalize(zero)


def _index(space):
    return {label: i for i, label in enumerate(space.labels())}


def _from_dense(space, vec):
    return StateVector(space, {label: vec[i] for label, i in _index(space).items()})


def test_dense_round_trip():
    s = tensor(qubit_state("q1", 0.6, 0.8j), qubit_state("q2", 0.8, -0.6))
    back = _from_dense(s.space, to_dense(s, _index(s.space)))
    assert inner(s, back) == pytest.approx(1.0, abs=1e-15)


def test_operator_to_dense_refuses_large_spaces():
    sp = Space(tuple((f"m{i}", tuple(str(k) for k in range(4))) for i in range(7)))
    op = projector_p123()
    with pytest.raises(ValueError):
        operator_to_dense(op, sp)


def test_apply_matches_dense_matrix_action():
    # the three-qubit projector, both routes
    op = projector_p123()
    sp = qubit_space("q1", "q2", "q3")
    rng = np.random.default_rng(11)
    vec = rng.normal(size=8) + 1j * rng.normal(size=8)
    vec /= np.linalg.norm(vec)
    s = _from_dense(sp, vec)
    sparse_route = to_dense(apply(op, s), _index(sp))
    dense_route = operator_to_dense(op, sp) @ vec
    assert np.abs(sparse_route - dense_route).max() < 1e-13


def test_rename_subsystems_rejects_collision():
    s = tensor(qubit_state("q1", 1.0, 0.0), qubit_state("q2", 0.0, 1.0))
    with pytest.raises(ValueError):
        rename_subsystems(s, {"q1": "q2"})


def test_state_json_is_deterministic():
    s = tensor(qubit_state("q1", 0.6, 0.8), qubit_state("q2", 1.0, 0.0))
    assert state_to_json(s) == state_to_json(s)
    assert "q1" in state_to_json(s)


def test_basis_state_amplitude():
    sp = qubit_space("q1", "q2")
    s = basis_state(sp, {"q1": "0", "q2": "1"})
    assert s.norm_sq() == 1.0
    assert s.amp(sp.label({"q1": "0", "q2": "1"})) == 1.0 + 0.0j


def test_density_matrix_mix_keeps_unit_trace():
    rho1 = partial_trace(qubit_state("q1", 1.0, 0.0), ["q1"])
    rho2 = partial_trace(qubit_state("q1", 0.0, 1.0), ["q1"])
    mixed = rho1 * 0.5 + rho2 * 0.5
    assert isinstance(mixed, DensityMatrix)
    assert mixed.trace() == pytest.approx(1.0, abs=1e-15)
    assert fidelity_pure(mixed, qubit_state("q1", 1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)
