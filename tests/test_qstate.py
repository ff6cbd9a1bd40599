"""Labeled state layer: composition, trace, fidelity, dense round trips."""

import math
import tracemalloc

import numpy as np
import pytest

from clonesim.qstate import (
    MAX_DM_DIM,
    BasisLabel,
    CompositionError,
    DegenerateNormError,
    DensityMatrix,
    Space,
    SpaceMismatchError,
    StateVector,
    _fidelity,
    fidelity_pure,
    inner,
    normalize,
    partial_trace,
    tensor,
)
from clonesim.cloner import qubit_space, qubit_state, singlet


def test_space_order_is_canonical():
    s1 = Space((("b", ("0", "1")), ("a", ("x", "y"))))
    s2 = Space((("a", ("x", "y")), ("b", ("0", "1"))))
    assert s1 == s2
    assert s1.ids == ("a", "b")


def test_space_accepts_list_alphabets():
    # lists are unhashable; the layout is memoized with its alphabets as tuples
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


@pytest.mark.parametrize("where", ["rho", "target"])
def test_fidelity_refuses_nan(where):
    # abs(nan) > tol is False, so each check must be written to fail on nan
    rho = partial_trace(qubit_state("q1", 0.6, 0.8), ["q1"])
    target = qubit_state("q1", 0.6, 0.8)
    if where == "rho":
        rho = DensityMatrix.from_array(rho.space, rho.matrix * math.nan)
    else:
        target = qubit_state("q1", 0.6, math.nan)
    with pytest.raises(ValueError):
        fidelity_pure(rho, target)
    with pytest.raises(ValueError):
        _fidelity(rho.matrix, target.vector)


def test_fidelity_kernel_holds_the_checks():
    rho = partial_trace(qubit_state("q1", 0.6, 0.8), ["q1"])
    assert _fidelity(rho.matrix, np.array([0.6, 0.8])) == \
        fidelity_pure(rho, qubit_state("q1", 0.6, 0.8))
    with pytest.raises(ValueError, match="not normalized"):
        _fidelity(rho.matrix, np.array([0.5, 0.0]))
    with pytest.raises(ValueError, match="non-real"):
        _fidelity(np.array([[0.5, 1j], [0.0, 0.5]]), np.array([1.0, 1.0]) / math.sqrt(2))
    with pytest.raises(ValueError, match="outside"):
        _fidelity(2.0 * np.eye(2), np.array([1.0, 0.0]))


def test_normalize_refuses_a_nan_norm():
    # a plain ValueError: a caller catching DegenerateNormError as a failed
    # herald must not take a nan state for one
    s = qubit_state("q1", 0.6, math.nan)
    with pytest.raises(ValueError, match="nan") as info:
        normalize(s)
    assert not isinstance(info.value, DegenerateNormError)


def test_normalize_returns_weight():
    s = qubit_state("q1", 0.6, 0.8) * 0.5
    unit, weight = normalize(s)
    assert weight == pytest.approx(0.25, abs=1e-15)
    assert unit.norm_sq() == pytest.approx(1.0, abs=1e-15)


def test_normalize_rejects_zero():
    zero = StateVector(qubit_space("q1"), {})
    with pytest.raises(DegenerateNormError):
        normalize(zero)


def test_dense_round_trip():
    s = tensor(qubit_state("q1", 0.6, 0.8j), qubit_state("q2", 0.8, -0.6))
    back = StateVector.from_array(s.space, np.array(s.vector))
    assert inner(s, back) == pytest.approx(1.0, abs=1e-15)
    assert list(back.amps.items()) == list(s.amps.items())
    # the vector follows the order of space.labels(): q1 slowest, q2 fastest
    assert list(s.amps) == list(s.space.labels())
    assert np.array_equal(s.vector, [0.6 * 0.8, 0.6 * -0.6, 0.8j * 0.8, 0.8j * -0.6])
    assert not back.vector.flags.writeable
    with pytest.raises(ValueError, match="shape"):
        StateVector.from_array(s.space, np.zeros(3))


def test_density_matrix_mix_keeps_unit_trace():
    rho1 = partial_trace(qubit_state("q1", 1.0, 0.0), ["q1"])
    rho2 = partial_trace(qubit_state("q1", 0.0, 1.0), ["q1"])
    mixed = rho1 * 0.5 + rho2 * 0.5
    assert isinstance(mixed, DensityMatrix)
    assert mixed.trace() == pytest.approx(1.0, abs=1e-15)
    assert fidelity_pure(mixed, qubit_state("q1", 1.0, 0.0)) == pytest.approx(0.5, abs=1e-12)


def test_public_constructors_check_their_keys():
    # qstate's own operations skip these checks; the public constructors keep them
    sp = qubit_space("q1")
    with pytest.raises(TypeError):
        StateVector(sp, {(("q1", "0"),): 1.0})
    label = sp.label({"q1": "0"})
    with pytest.raises(TypeError):
        DensityMatrix(sp, {(label, (("q1", "1"),)): 1.0})


def test_density_matrix_is_read_only():
    rho = partial_trace(qubit_state("q1", 0.6, 0.8), ["q1"])
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 0.0


def test_density_matrix_above_the_cap_is_refused_before_allocation():
    # ten qubits: a 1024 x 1024 complex matrix would take 16 MiB
    space = Space(tuple((f"q{i}", ("0", "1")) for i in range(10)))
    assert space.dim == 2 * MAX_DM_DIM
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the cap"):
            DensityMatrix(space, {})
        with pytest.raises(ValueError, match="exceeds the cap"):
            DensityMatrix.from_array(space, np.zeros((0, 0)))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_partial_trace_above_the_cap_is_refused():
    ket = StateVector(Space(tuple((f"q{i}", ("0", "1")) for i in range(10))), {})
    with pytest.raises(ValueError, match="exceeds the cap"):
        partial_trace(ket, ket.space.ids)
    assert partial_trace(ket, ["q0"]).trace() == 0.0


def test_a_label_from_another_space_is_refused():
    q1 = qubit_space("q1")
    foreign = qubit_space("q2").label({"q2": "0"})
    wider = qubit_space("q1", "q2").label({"q1": "0", "q2": "0"})
    off_alphabet = BasisLabel((("q1", "2"),))
    for label in (foreign, wider, off_alphabet):
        with pytest.raises(SpaceMismatchError, match="not a label of the space"):
            StateVector(q1, {label: 1.0})
        with pytest.raises(SpaceMismatchError, match="not a label of the space"):
            DensityMatrix(q1, {(label, label): 1.0})


def test_ket_above_the_cap_is_refused_before_allocation():
    # nineteen qubits: a 2**19-entry complex vector would take 8 MiB
    def qubits(prefix, n):
        return Space(tuple((f"{prefix}{i}", ("0", "1")) for i in range(n)))

    space = qubits("q", 19)
    assert space.dim == 2 * MAX_DM_DIM ** 2
    assert StateVector(qubits("q", 18), {}).vector.size == MAX_DM_DIM ** 2
    ten, nine = StateVector(qubits("q", 10), {}), StateVector(qubits("r", 9), {})
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds the cap"):
            StateVector(space, {})
        with pytest.raises(ValueError, match="exceeds the cap"):
            StateVector.from_array(space, np.zeros(0))
        with pytest.raises(ValueError, match="exceeds the cap"):
            tensor(ten, nine)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_partial_trace_leaves_out_single_level_subsystems():
    # einsum takes only 52 subscripts, two per subsystem of a matrix; the
    # plan leaves the one-level axes, which change nothing, out of them
    space = Space(tuple((f"s{i:02d}", ("0",)) for i in range(60)) + (("zz", ("0", "1")),))
    labels = list(space.labels())
    s = StateVector(space, {labels[0]: 0.6, labels[1]: 0.8j})
    expect = np.outer([0.6, 0.8j], [0.6, -0.8j])
    for state in (s, DensityMatrix.from_pure(s)):
        np.testing.assert_allclose(partial_trace(state, ["zz"]).matrix, expect, rtol=0, atol=1e-15)
        assert partial_trace(state, ["zz", "s59"]).trace() == pytest.approx(1.0, abs=1e-15)
