"""Cavity passage dynamics: dark manifolds, guards, fluxes, pulse shapes.

Evolution tests here run short schedules with modest drive so each case
finishes in well under a second; the long-passage behavior is covered by the
acceptance suite.
"""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from clonesim import adiabatic
from clonesim.adiabatic import (
    _chunks,
    _matrices,
    MAX_STEPS,
    STEP_TOL,
    DynamicsReport,
    MixingAngle,
    PulseSchedule,
    Side,
    SystemParams,
    alice_initial,
    bob_initial,
    dark_states,
    emission_channels,
    emission_identity_check,
    evolve,
    mixing_angle,
    node_space,
    pulse_overlap,
    pulse_overlap_complex,
    pulse_shape_analytic,
    step_count,
)
from clonesim.config import ConfigError, settings_from_values
from clonesim.protocol import EXCITED_POP_WARN
from clonesim.qstate import StateVector, inner, to_dense

FAST = PulseSchedule(omega_max=2.0, t_total=25.0)


# --- parameters and schedules ----------------------------------------------


def test_side_strings_coerce():
    p = SystemParams(side="bob")
    assert p.side is Side.BOB


def test_params_validation():
    with pytest.raises(ValueError):
        SystemParams(side=Side.ALICE, g=0.0)
    with pytest.raises(ValueError):
        SystemParams(side=Side.ALICE, kappa=-1.0)
    with pytest.raises(ValueError):
        SystemParams(side=Side.ALICE, epsilon=1.0)


def test_pulse_schedule_ramps_then_holds():
    om = PulseSchedule(omega_max=4.0, t_total=40.0, hold_fraction=0.25)
    assert om.value(0.0) == 0.0
    assert om.t_ramp == pytest.approx(30.0)
    hold = np.linspace(om.t_ramp, 40.0, 7)
    assert np.allclose(om.value(hold), 4.0)     # drive stays on while the photon leaks
    ramp = om.value(np.linspace(0.0, om.t_ramp, 50))
    assert np.all(np.diff(ramp) >= 0)


@pytest.mark.parametrize("shape", ["sin2", "tanh", "linear"])
def test_pulse_shapes_stay_in_range(shape):
    om = PulseSchedule(omega_max=3.0, t_total=30.0, shape=shape)
    vals = om.value(np.linspace(0.0, 30.0, 301))
    assert vals.min() >= -1e-15
    assert vals.max() == pytest.approx(3.0, rel=1e-6)


def test_unknown_pulse_shape_rejected():
    with pytest.raises(ValueError):
        PulseSchedule(shape="square")


def test_mixing_angle_conventions():
    g = 1.3
    om = 2.0
    src = MixingAngle.for_side(Side.ALICE, g, om)
    rem = MixingAngle.for_side(Side.BOB, g, om)
    assert src.cos == pytest.approx(g / math.hypot(g, om))
    assert rem.cos == pytest.approx(math.sqrt(2) * g / math.sqrt(2 * g * g + om * om))
    assert src.cos ** 2 + src.sin ** 2 == pytest.approx(1.0)
    # driving the remote node sqrt(2) harder matches the source angle
    matched = MixingAngle.for_side(Side.BOB, g, om * math.sqrt(2))
    assert matched.cos == pytest.approx(src.cos, abs=1e-15)


def test_coupling_modulation_changes_g():
    p = SystemParams(side=Side.ALICE)
    assert p.g_at(5.0) == p.g
    pm = replace(p, epsilon=0.1, nu=0.5)
    assert pm.g_at(0.0) == pytest.approx(p.g)           # sin modulation starts at zero
    assert pm.g_at(math.pi) == pytest.approx(p.g * 1.1)  # quarter period of nu = 0.5


# --- dark manifold -----------------------------------------------------------


def _h_norm_sq(p, t, d):
    """|H(t) d|^2 with H assembled from the pieces ``evolve`` integrates."""
    m = _matrices(p)
    h = m.static + FAST.value(t) * m.drive + p.g_at(t) * m.cavity
    return np.linalg.norm(h @ to_dense(d, m.index)) ** 2


@pytest.mark.parametrize("delta", [0.0, 0.7, -2.0])
@pytest.mark.parametrize("t", [5.0, 12.0, 20.0])
def test_source_dark_states_are_null(delta, t):
    p = SystemParams(side=Side.ALICE, gamma=0.0, delta=delta)
    d1, d2 = dark_states(p, FAST, t)
    assert _h_norm_sq(p, t, d1) < 1e-24
    assert _h_norm_sq(p, t, d2) < 1e-24
    assert d1.norm_sq() == pytest.approx(1.0, abs=1e-12)


@pytest.mark.parametrize("delta", [0.0, 1.5])
def test_remote_dark_state_is_null(delta):
    p = SystemParams(side=Side.BOB, gamma=0.0, delta=delta)
    (d,) = dark_states(p, FAST, 10.0)
    assert _h_norm_sq(p, 10.0, d) < 1e-24


def test_dark_state_at_zero_drive_is_bare_atom():
    p = SystemParams(side=Side.ALICE)
    d1, d2 = dark_states(p, FAST, 0.0)
    assert abs(inner(d1 * 0.6 + d2 * 0.8, alice_initial(0.6, 0.8))) == pytest.approx(1.0)


# --- evolution guards ---------------------------------------------------------


def test_evolve_clamps_coarse_requested_step():
    # the requested dt only caps the step; the grid never has fewer than 1000
    p = SystemParams(side=Side.ALICE)
    coarse = FAST.t_total / 999
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = evolve(alice_initial(1.0, 0.0), p, FAST, dt=coarse)
    assert not caught                    # FAST is brisk; the report says so, not a warning
    assert rep.excited_pop_max > EXCITED_POP_WARN
    assert len(rep.t_grid) - 1 == step_count(p, FAST, coarse) >= 1000
    assert rep.t_grid[1] <= FAST.t_total / 1000
    assert rep.closure_error < 1e-8


def test_step_count_resolves_coupling_modulation():
    # the modulation rate nu counts only when the coupling is modulated
    bench = PulseSchedule(omega_max=2.0, t_total=100.0)
    still = step_count(SystemParams(side=Side.ALICE), bench, 0.05)
    assert step_count(SystemParams(side=Side.ALICE, nu=10.0), bench, 0.05) == still
    counts = [step_count(SystemParams(side=Side.ALICE, epsilon=0.3, nu=nu), bench, 0.05)
              for nu in (0.0, 2.0, 10.0)]
    assert counts[0] < counts[1] < counts[2]


def test_error_bound_covers_the_channel_samples(emitted):
    # against a 4x finer nested grid, the samples deviate by no more than the bound
    n = len(emitted.t_grid) - 1
    fine = evolve(alice_initial(0.6, 0.8), emitted.params, FAST,
                  dt=FAST.t_total / (4 * n) * (1.0 + 1e-12))
    assert len(fine.t_grid) - 1 == 4 * n
    deviation = max(np.abs(emitted.channel_pulses[ch] - fine.channel_pulses[ch][::4]).max()
                    for ch in emitted.channel_pulses)
    assert 0.0 < deviation <= emitted.error_bound <= STEP_TOL


def test_chunks_give_every_step_a_partner():
    # step doubling pairs steps inside one chunk, so no chunk may hold one step
    for n in (1000, 1024, 1025, 1281):
        spans = _chunks(n)
        assert spans[0][0] == 0 and spans[-1][1] == n
        assert all(a[1] == b[0] for a, b in zip(spans, spans[1:]))
        assert min(hi - lo for lo, hi in spans) >= 2


def test_evolve_refines_until_the_bound_holds():
    # a closed passage at Omega = 20 needs a finer grid than its first guess
    p = SystemParams(side=Side.ALICE, kappa=0.0, gamma=0.0)
    track = PulseSchedule(t_total=25.0)
    dt = track.t_total / 1000
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = evolve(alice_initial(0.6, 0.8), p, track, dt=dt)
    assert len(rep.t_grid) - 1 > step_count(p, track, dt)
    assert rep.error_bound <= STEP_TOL
    assert rep.closure_error <= 1e-8
    assert not caught
    assert rep.excited_pop_max > EXCITED_POP_WARN       # reported for the accepted grid


def test_refinement_past_the_step_budget_raises(monkeypatch):
    # the tracking run above refines from 5000 to ~30k steps
    monkeypatch.setattr(adiabatic, "MAX_STEPS", 6000)
    p = SystemParams(side=Side.ALICE, kappa=0.0, gamma=0.0)
    with pytest.raises(ValueError, match="budget"):
        evolve(alice_initial(0.6, 0.8), p, PulseSchedule(t_total=25.0), dt=0.025)


def test_step_budget_is_a_config_error():
    # counted, never run: alice.delta = 1e6 would ask for ~1e10 steps
    p = SystemParams(side=Side.ALICE, delta=1e6)
    assert step_count(p, PulseSchedule(), 0.05) > MAX_STEPS
    assert step_count(SystemParams(side=Side.ALICE, kappa=1e308), PulseSchedule(), 0.05) == math.inf
    values = {"seed": "1", "input.a": "1", "input.b": "0", "alice.delta": "1e6"}
    with pytest.raises(ConfigError, match="budget"):
        settings_from_values(values, mode="dynamic")
    assert step_count(SystemParams(side=Side.BOB), PulseSchedule(omega_max=20 * math.sqrt(2)),
                      0.05) < MAX_STEPS    # the default passage fits


def test_evolve_rejects_unnormalized_initial():
    p = SystemParams(side=Side.ALICE)
    bad = alice_initial(1.0, 0.0) * 0.9
    with pytest.raises(ValueError):
        evolve(bad, p, FAST, dt=0.025)


def test_evolve_rejects_wrong_space():
    p = SystemParams(side=Side.BOB)
    with pytest.raises(ValueError):
        evolve(alice_initial(1.0, 0.0), p, FAST, dt=0.025)


def test_evolve_rejects_support_outside_the_one_excitation_basis():
    # |eL> with an R photon holds two excitations: no passage reaches it
    p = SystemParams(side=Side.ALICE)
    two = StateVector(node_space(Side.ALICE), {adiabatic._label(Side.ALICE, "eL", "R"): 1.0})
    with pytest.raises(ValueError, match="one-excitation"):
        evolve(two, p, FAST, dt=0.025)


def test_fast_ramp_reports_excited_population():
    p = SystemParams(side=Side.ALICE, kappa=0.0, gamma=0.0)
    rush = PulseSchedule(omega_max=20.0, t_total=10.0)
    rep = evolve(alice_initial(0.6, 0.8), p, rush, dt=0.01)
    assert rep.excited_pop_max > EXCITED_POP_WARN


# --- fluxes and channels -------------------------------------------------------


@pytest.fixture(scope="module")
def emitted():
    p = SystemParams(side=Side.ALICE)
    return evolve(alice_initial(0.6, 0.8), p, FAST, dt=0.025)     # deliberately brisk


def test_emission_accounting_closes(emitted):
    assert isinstance(emitted, DynamicsReport)
    assert emitted.closure_error < 1e-8
    assert emitted.emission_prob > 0.9          # Omega=2 leaves a little behind
    assert emitted.spont_loss < 0.1


def test_channel_split_follows_input_weights(emitted):
    w = emitted.channel_weights
    assert w["L"] / (w["L"] + w["R"]) == pytest.approx(0.36, abs=1e-9)
    # the photon carries the input qubit: (L, R) = (a, b) up to a global phase
    pol = np.array(emitted.polarization)
    assert np.abs(pol * np.conj(pol[1]) / abs(pol[1]) - (0.6, 0.8)).max() < 1e-9
    p = SystemParams(side=Side.ALICE)
    only_l = evolve(alice_initial(1.0, 0.0), p, FAST, dt=0.025)
    assert only_l.polarization == (1.0, 0.0)
    assert not only_l.channel_pulses["R"].any()


def test_envelope_carries_all_channel_weight(emitted):
    total = np.trapezoid(np.abs(emitted.pulse_shape) ** 2, emitted.t_grid)
    assert total == pytest.approx(emitted.emission_prob, rel=1e-6)


def test_remote_channels_pin_atom_state():
    p = SystemParams(side=Side.BOB)
    ch = emission_channels(p)
    assert ch["L"].level("atomB") == "gR"
    assert ch["R"].level("atomB") == "gL"


def test_remote_passage_splits_evenly():
    p = SystemParams(side=Side.BOB)
    rep = evolve(bob_initial(), p,
                 PulseSchedule(omega_max=2.0 * math.sqrt(2), t_total=25.0), dt=0.025)
    w = rep.channel_weights
    assert w["L"] == pytest.approx(w["R"], rel=1e-9)
    assert rep.closure_error < 1e-8


# --- analytic pulse -------------------------------------------------------------


def test_emission_identity():
    p = SystemParams(side=Side.ALICE)
    grid = np.linspace(0.0, FAST.t_total, 4001)
    lhs, rhs = emission_identity_check(p, FAST, grid)
    assert abs(lhs - rhs) < 1e-6


def test_numeric_envelope_matches_analytic(emitted):
    # brisk passage: agreement is looser here than on the long default schedule
    analytic = pulse_shape_analytic(emitted.params, emitted.omega, emitted.t_grid)
    ov = pulse_overlap(emitted.t_grid, emitted.pulse_shape, emitted.t_grid, analytic)
    assert ov > 0.97


def test_pulse_overlap_normalization():
    t = np.linspace(0.0, 10.0, 501)
    f = np.exp(-((t - 5.0) ** 2)) * (1.0 + 0.0j)
    assert pulse_overlap(t, f, t, f) == pytest.approx(1.0, abs=1e-12)
    assert pulse_overlap_complex(t, f, t, 1j * f) == pytest.approx(1j, abs=1e-12)


def test_pulse_shape_analytic_rejects_bad_grid():
    p = SystemParams(side=Side.ALICE)
    with pytest.raises(ValueError):
        pulse_shape_analytic(p, FAST, np.array([1.0, 2.0, 3.0]))   # must start at 0
    with pytest.raises(ValueError):
        pulse_shape_analytic(p, FAST, np.array([0.0, 1.0]))        # too short
