"""Exact cloning algebra: frozen constants and closed-form agreement.

The numeric constants asserted here (3/4, 5/6, 2/3, rank 6) were computed
once from the projection algebra and are pinned as literals on purpose; the
implementation must reproduce them, not the other way around.
"""

import math

import numpy as np
import pytest

from clonesim.cloner import (
    InputQubit,
    Q1,
    Q2,
    Q3,
    clone,
    clone_fidelity,
    closed_form_output,
    haar_qubit,
    orthogonal_state,
    projector_p123,
    qubit_space,
    qubit_state,
    singlet,
    unot_fidelity,
)
from clonesim.qstate import fidelity_pure, inner, partial_trace, tensor

BRANCH_PROB = 0.75
CLONE_F = 5.0 / 6.0
ANTI_F = 2.0 / 3.0

INPUTS = [
    InputQubit(1.0, 0.0),
    InputQubit(0.0, 1.0),
    InputQubit(0.6, 0.8),
    InputQubit.normalized(1.0, 1.0j),
    InputQubit.normalized(0.3 - 0.4j, 0.5 + 0.7j),
]


@pytest.mark.parametrize("q", INPUTS)
def test_branch_probability_is_three_quarters(q):
    assert clone(q).branch_prob == pytest.approx(BRANCH_PROB, abs=1e-12)


@pytest.mark.parametrize("q", INPUTS)
def test_clone_fidelities(q):
    out = clone(q)
    target1 = qubit_state(Q1, q.a, q.b)
    target2 = qubit_state(Q2, q.a, q.b)
    clone1, clone2 = partial_trace(out.state, [Q1]), partial_trace(out.state, [Q2])
    assert fidelity_pure(clone1, target1) == pytest.approx(CLONE_F, abs=1e-12)
    assert fidelity_pure(clone2, target2) == pytest.approx(CLONE_F, abs=1e-12)
    assert clone_fidelity(q) == pytest.approx(CLONE_F, abs=1e-12)


@pytest.mark.parametrize("q", INPUTS)
def test_anticlone_fidelity_against_flipped_state(q):
    out = clone(q)
    anti = partial_trace(out.state, [Q3])
    assert fidelity_pure(anti, orthogonal_state(q)) == pytest.approx(ANTI_F, abs=1e-12)
    assert unot_fidelity(q) == pytest.approx(ANTI_F, abs=1e-12)


@pytest.mark.parametrize("q", INPUTS)
def test_closed_form_matches_projection_up_to_global_phase(q):
    ov = inner(closed_form_output(q), clone(q).state)
    assert abs(ov) == pytest.approx(1.0, abs=1e-12)


def test_oracle_kernel_agrees_with_the_labeled_and_closed_form_routes():
    # the oracle scores the projected 8-vector directly; clone() labels the
    # same vector, closed_form_output derives it without the projector
    rng = np.random.default_rng(2016)
    for _ in range(200):
        q = haar_qubit(rng)
        f_clone, f_unot = clone_fidelity(q), unot_fidelity(q)
        for state in (clone(q).state, closed_form_output(q)):
            assert abs(f_clone - fidelity_pure(partial_trace(state, [Q1]),
                                               qubit_state(Q1, q.a, q.b))) <= 1e-15
            assert abs(f_unot - fidelity_pure(partial_trace(state, [Q3]),
                                              orthogonal_state(q))) <= 1e-15


def test_projector_is_rank6_idempotent_hermitian():
    mat = projector_p123()
    assert mat.shape == (8, 8) and not mat.flags.writeable   # one shared matrix
    assert np.abs(mat @ mat - mat).max() < 1e-12
    assert np.abs(mat - mat.conj().T).max() < 1e-12
    eigs = np.linalg.eigvalsh(mat)
    assert sum(e > 0.5 for e in eigs) == 6   # rank 6 of 8


def test_projector_annihilates_singlet_sector():
    # rows and columns follow the canonical label order of the register
    pre = tensor(singlet(Q1, Q2), qubit_state(Q3, 0.6, 0.8))
    assert pre.space == qubit_space(Q1, Q2, Q3)
    assert np.linalg.norm(projector_p123() @ pre.vector) ** 2 < 1e-24


def test_input_validation():
    with pytest.raises(ValueError):
        InputQubit(1.0, 1.0)
    with pytest.raises(ValueError):
        InputQubit.normalized(0.0, 0.0)
    q = InputQubit.normalized(3.0, 4.0)
    assert abs(q.a) == pytest.approx(0.6)


def test_normalizing_huge_amplitudes_is_a_value_error():
    # squaring 1e308 overflows; that is a bad input, not an arithmetic crash
    with pytest.raises(ValueError, match="too large"):
        InputQubit.normalized(1e308, 0.0)


def test_haar_sampling_is_seeded_and_normalized():
    shared = np.random.default_rng(5)
    qs1 = [haar_qubit(shared) for _ in range(3)]
    qs2 = [haar_qubit(np.random.default_rng(5)) for _ in range(3)]
    assert qs1[0] == qs2[0] and qs1[1] != qs2[1]   # stream advances, reseed repeats
    rng_a, rng_b = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(10):
        qa, qb = haar_qubit(rng_a), haar_qubit(rng_b)
        assert (qa.a, qa.b) == (qb.a, qb.b)
        assert abs(qa.a) ** 2 + abs(qa.b) ** 2 == pytest.approx(1.0, abs=1e-12)


def test_fidelity_is_input_independent():
    rng = np.random.default_rng(17)
    vals = np.array([clone_fidelity(haar_qubit(rng)) for _ in range(50)])
    assert vals.var() < 1e-20
    probs = np.array([clone(haar_qubit(rng)).branch_prob for _ in range(20)])
    assert np.abs(probs - BRANCH_PROB).max() < 1e-12


def test_singlet_is_antisymmetric_and_normalized():
    s = singlet("x", "y")
    assert s.norm_sq() == pytest.approx(1.0, abs=1e-15)
    sp = s.space
    assert s.amps[sp.label({"x": "0", "y": "1"})] == pytest.approx(1 / math.sqrt(2))
    assert s.amps[sp.label({"x": "1", "y": "0"})] == pytest.approx(-1 / math.sqrt(2))
