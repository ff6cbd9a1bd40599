"""Property tests: invariants over generated inputs rather than fixed examples."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clonesim.adiabatic import (
    PulseSchedule,
    Side,
    SystemParams,
    dark_states,
    hamiltonian,
    node_space,
)
from clonesim.config import KEY_TABLE, ConfigError, settings_from_values, values_from_text
from clonesim.optics import PATH_A, PATH_B, POLS, beamsplitter, detection_bookkeeping, one_photon
from clonesim.qstate import (
    DensityMatrix,
    Space,
    StateVector,
    apply,
    operator_to_dense,
    partial_trace,
    tensor,
)

amplitude = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)


def _pair_state(c) -> StateVector:
    """sum_pq c_pq |A:p>|B:q>, one photon per path, any (entangled) amplitudes."""
    terms = [tensor(one_photon(PATH_A, {p: 1.0}), one_photon(PATH_B, {q: 1.0})) * c_pq
             for (p, q), c_pq in zip([(p, q) for p in POLS for q in POLS], c)]
    out = terms[0]
    for term in terms[1:]:
        out = out + term
    return out


@given(st.lists(amplitude, min_size=4, max_size=4))
def test_beamsplitter_preserves_norm_and_is_an_involution(c):
    # matrix [[1, 1], [1, -1]]/sqrt(2): unitary and its own inverse
    s = _pair_state(c)
    out = beamsplitter(s, PATH_A, PATH_B)
    assert out.norm_sq() == pytest.approx(s.norm_sq(), rel=1e-12, abs=1e-12)
    twice = {label.factors: amp for label, amp in beamsplitter(out, PATH_A, PATH_B).amps.items()}
    start = {label.factors: amp for label, amp in s.amps.items()}
    for key in twice.keys() | start.keys():
        assert twice.get(key, 0.0) == pytest.approx(start.get(key, 0.0), abs=1e-12)


@given(st.lists(amplitude, min_size=4, max_size=4),
       st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False))
def test_count_distribution_carries_the_input_norm(c, overlap):
    s = _pair_state(c)
    if s.norm_sq() < 1e-6:
        return
    rep = detection_bookkeeping(s, overlap)
    # pattern weights sum to the input norm^2; the report divides by it
    assert sum(rep.count_distribution.values()) == pytest.approx(1.0, abs=1e-12)
    assert 0.0 <= rep.p_coincidence <= 1.0 + 1e-12


@given(st.sampled_from(list(Side)),
       st.floats(-50.0, 50.0), st.floats(0.01, 50.0), st.floats(0.01, 50.0))
def test_table_hamiltonian_is_hermitian_and_dark_states_are_null(side, delta, g, omega):
    p = SystemParams(side=side, g=g, gamma=0.0, delta=delta)
    sched = PulseSchedule(omega_max=omega, t_total=10.0)
    for t in (0.3 * sched.t_ramp, sched.t_ramp):
        h = hamiltonian(p, sched, t)
        dense = operator_to_dense(h, node_space(side))
        assert np.array_equal(dense, dense.conj().T)
        for d in dark_states(p, sched, t):
            assert d.norm_sq() == pytest.approx(1.0, abs=1e-12)
            assert apply(h, d).norm_sq() <= 1e-24 * (1.0 + g + omega) ** 2


_SPACE = Space((("a", ("0", "1", "2")), ("b", ("0", "1")), ("c", ("x", "y"))))


@given(st.lists(amplitude, min_size=_SPACE.dim, max_size=_SPACE.dim),
       st.sets(st.sampled_from(_SPACE.ids), min_size=1))
def test_partial_trace_keeps_the_norm(amps, keep):
    s = StateVector(_SPACE, dict(zip(_SPACE.labels(), amps)))
    n2 = s.norm_sq()
    assert partial_trace(s, keep).trace() == pytest.approx(n2, rel=1e-12, abs=1e-12)
    rho = DensityMatrix.from_pure(s)
    assert partial_trace(rho, keep).trace() == pytest.approx(n2, rel=1e-12, abs=1e-12)


def _settle(text_or_values, mode):
    """Parse and build settings; any error but ConfigError propagates."""
    try:
        values = (values_from_text(text_or_values) if isinstance(text_or_values, str)
                  else text_or_values)
        settings_from_values(values, mode=mode)
    except ConfigError:
        pass


_modes = st.sampled_from(["analytic", "dynamic"])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(st.text(), _modes)
def test_config_text_fails_only_with_config_error(text, mode):
    _settle(text, mode)


_value = st.one_of(
    st.text(min_size=1),
    st.floats().map(repr),
    st.integers().map(str),
    st.complex_numbers().map(str),
    st.sampled_from(["sin2", "tanh", "square", "0x10", "1e308", "-1e308", "nan", "inf"]),
)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300)
@given(st.dictionaries(st.sampled_from(sorted(KEY_TABLE)), _value), _modes)
def test_config_values_fail_only_with_config_error(values, mode):
    # settings are built and checked, never run
    _settle({"seed": "1", "input.a": "0.6", "input.b": "0.8", **values}, mode)
