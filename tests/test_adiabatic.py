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

from scipy.integrate import solve_ivp

from clonesim import adiabatic
from clonesim.adiabatic import (
    _chunks,
    _parts,
    MAX_STEPS,
    STEP_TOL,
    DynamicsReport,
    MixingAngle,
    PulseSchedule,
    Side,
    SystemParams,
    dark_state,
    emission_identity_check,
    evolve,
    mixing_angle,
    pulse_overlap,
    pulse_overlap_complex,
    pulse_shape_analytic,
    step_count,
)
from clonesim.config import ConfigError, settings_from_values
from clonesim.cloner import InputQubit
from clonesim.protocol import (
    ATOM_B,
    EXCITED_POP_WARN,
    Mode,
    NodeConfig,
    ProtocolConfig,
    assemble_joint,
    report_to_dict,
    run,
)
from full_node import (
    REMOTE_CHANNELS,
    SOURCE_CHANNELS,
    remote_dark_state,
    remote_h_eff,
    source_dark_states,
    source_h_eff,
)

FAST = PulseSchedule(omega_max=2.0, t_total=25.0)
FAST_REMOTE = PulseSchedule(omega_max=2.0 * math.sqrt(2), t_total=25.0)
EVEN = (1 / math.sqrt(2), 1 / math.sqrt(2))      # the remote photon's split


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


def _h_norm_sq(p, sched, t, d):
    """|H(t) d|^2 with H assembled from the block pieces ``evolve`` integrates."""
    static, drive, cavity = _parts(p)
    h = static + sched.value(t) * drive + p.g_at(t) * cavity
    return np.linalg.norm(h @ d) ** 2


@pytest.mark.parametrize("delta", [0.0, 0.7, -2.0])
@pytest.mark.parametrize("t", [5.0, 12.0, 20.0])
def test_source_dark_states_are_null(delta, t):
    p = SystemParams(side=Side.ALICE, gamma=0.0, delta=delta)
    d = dark_state(p, FAST, t)
    assert _h_norm_sq(p, FAST, t, d) < 1e-24
    assert np.linalg.norm(d) == pytest.approx(1.0, abs=1e-12)
    h = source_h_eff(FAST.value(t), p.g, delta)
    for full in source_dark_states(FAST.value(t), p.g):
        assert np.linalg.norm(h @ full) ** 2 < 1e-24
    # the block is the gL block {gL, eL, g0 1_L} of the full node
    assert np.abs(source_dark_states(FAST.value(t), p.g)[0][[0, 2, 4]] - d).max() < 1e-15


@pytest.mark.parametrize("delta", [0.0, 1.5])
def test_remote_dark_state_is_null(delta):
    p = SystemParams(side=Side.BOB, gamma=0.0, delta=delta)
    d = dark_state(p, FAST, 10.0)
    assert _h_norm_sq(p, FAST, 10.0, d) < 1e-24
    full = remote_dark_state(FAST.value(10.0), p.g)
    assert np.linalg.norm(remote_h_eff(FAST.value(10.0), p.g, delta) @ full) ** 2 < 1e-24
    # the block's photon state is the bright combination of the two couplings
    bright = np.array([d[0], d[1], d[2] / math.sqrt(2), d[2] / math.sqrt(2)])
    assert np.abs(bright - full).max() < 1e-15


def test_dark_state_at_zero_drive_is_bare_atom():
    p = SystemParams(side=Side.ALICE)
    assert np.array_equal(dark_state(p, FAST, 0.0), [1.0, 0.0, 0.0])


# --- evolution guards ---------------------------------------------------------


def test_evolve_clamps_coarse_requested_step():
    # the requested dt only caps the step; the grid never has fewer than 1000
    p = SystemParams(side=Side.ALICE)
    coarse = FAST.t_total / 999
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = evolve((1.0, 0.0), p, FAST, dt=coarse)
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
    fine = evolve((0.6, 0.8), emitted.params, FAST,
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
        rep = evolve((0.6, 0.8), p, track, dt=dt)
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
        evolve((0.6, 0.8), p, PulseSchedule(t_total=25.0), dt=0.025)


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
    with pytest.raises(ValueError, match="unit-norm"):
        evolve((0.9, 0.0), p, FAST, dt=0.025)


def test_evolve_rejects_wrong_space():
    # the split lives on the photon's two polarizations, nothing else
    p = SystemParams(side=Side.BOB)
    with pytest.raises(ValueError, match="two"):
        evolve((0.6, 0.8, 0.0), p, FAST, dt=0.025)


def test_evolve_rejects_non_finite_split():
    p = SystemParams(side=Side.ALICE)
    with pytest.raises(ValueError, match="unit-norm"):
        evolve((math.nan, 1.0), p, FAST, dt=0.025)


def test_fast_ramp_reports_excited_population():
    p = SystemParams(side=Side.ALICE, kappa=0.0, gamma=0.0)
    rush = PulseSchedule(omega_max=20.0, t_total=10.0)
    rep = evolve((0.6, 0.8), p, rush, dt=0.01)
    assert rep.excited_pop_max > EXCITED_POP_WARN


@pytest.mark.parametrize("chunk", [adiabatic._CHUNK, 4])
def test_norm_growth_names_the_first_grid_time_past_the_tolerance(monkeypatch, chunk):
    # a gain on e (gamma < 0, set past the range check) with no cavity loss
    # grows the norm; the norm is checked chunk by chunk, so with 4-step
    # chunks the first offending point, 10 steps in, lies in the third chunk
    monkeypatch.setattr(adiabatic, "_CHUNK", chunk)
    p = SystemParams(side=Side.ALICE, kappa=0.0)
    object.__setattr__(p, "gamma", -1.0)
    with pytest.raises(RuntimeError, match=r"norm\^2 grew to 1\.0000000002 at t = 0\.25$"):
        evolve((0.6, 0.8), p, FAST, dt=0.025)


# --- fluxes and channels -------------------------------------------------------


@pytest.fixture(scope="module")
def emitted():
    p = SystemParams(side=Side.ALICE)
    return evolve((0.6, 0.8), p, FAST, dt=0.025)     # deliberately brisk


def test_emission_accounting_closes(emitted):
    assert isinstance(emitted, DynamicsReport)
    assert emitted.closure_error < 1e-8
    assert emitted.emission_prob > 0.9          # Omega=2 leaves a little behind
    assert emitted.spont_loss < 0.1


@pytest.fixture(scope="module")
def fast_dynamics():
    """report.json's per-node dynamics of a dynamic run on the brisk schedules,
    input (0.6, 0.8): the same two passages as ``emitted`` and the remote one."""
    cfg = ProtocolConfig(input=InputQubit(0.6, 0.8), mode=Mode.DYNAMIC, dt=0.025,
                         alice=NodeConfig(SystemParams(side=Side.ALICE), FAST),
                         bob=NodeConfig(SystemParams(side=Side.BOB), FAST_REMOTE))
    return report_to_dict(run(cfg))["dynamics"]


def test_channel_split_follows_input_weights(emitted, fast_dynamics):
    w = fast_dynamics["alice"]["channel_weights"]
    assert w["L"] / (w["L"] + w["R"]) == pytest.approx(0.36, abs=1e-9)
    # the photon carries the input qubit: each channel is its amplitude of
    # the split (a, b) times the one envelope
    for s, name in zip((0.6, 0.8), ("L", "R")):
        assert np.array_equal(emitted.channel_pulses[name], s * emitted.pulse_shape)
    p = SystemParams(side=Side.ALICE)
    only_l = evolve((1.0, 0.0), p, FAST, dt=0.025)
    assert np.array_equal(only_l.channel_pulses["L"], only_l.pulse_shape)
    assert not only_l.channel_pulses["R"].any()


def test_passage_arrays_are_read_only(emitted):
    for arr in (emitted.t_grid, emitted.pulse_shape, emitted.final_state,
                *emitted.channel_pulses.values()):
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 1.0


def test_envelope_carries_all_channel_weight(emitted):
    total = np.trapezoid(np.abs(emitted.pulse_shape) ** 2, emitted.t_grid)
    assert total == pytest.approx(emitted.emission_prob, rel=1e-6)


def test_remote_channels_pin_atom_state():
    # the remote L photon leaves atom B in gR, the R photon in gL
    for split, atom in (((1.0, 0.0), "gR"), ((0.0, 1.0), "gL")):
        joint = assemble_joint((1.0, 0.0), split)
        assert {label.level(ATOM_B) for label, amp in joint.amps.items() if amp} == {atom}


def test_remote_passage_splits_evenly(fast_dynamics):
    bob = fast_dynamics["bob"]
    w = bob["channel_weights"]
    assert w["L"] == pytest.approx(w["R"], rel=1e-9)
    assert bob["closure_error"] < 1e-8


def _full_node_channels(h_eff, psi0, p, sched, t_grid, channels):
    """sqrt(kappa) x each channel's amplitude of the full node model, on t_grid."""
    def rhs(t, y):
        return -1j * (h_eff(sched.value(t), p.g_at(t), p.delta, p.gamma, p.kappa) @ y)

    sol = solve_ivp(rhs, (0.0, sched.t_total), np.asarray(psi0, dtype=complex),
                    method="DOP853", t_eval=t_grid, rtol=1e-11, atol=1e-13)
    assert sol.success
    return {name: math.sqrt(p.kappa) * sol.y[i] for name, i in channels.items()}


@pytest.mark.parametrize("side", [Side.ALICE, Side.BOB])
def test_block_passage_matches_the_full_node(side):
    # the source node from a|gL> + b|gR>, the remote node from gp0: each
    # channel of the full node is the split it was given times the envelope
    p = SystemParams(side=side)
    if side is Side.ALICE:
        split, sched = (0.6, 0.8j), FAST
        h_eff, psi0, channels = source_h_eff, [0.6, 0.8j, 0, 0, 0, 0], SOURCE_CHANNELS
    else:
        split, sched = EVEN, FAST_REMOTE
        h_eff, psi0, channels = remote_h_eff, [1, 0, 0, 0], REMOTE_CHANNELS
    rep = evolve(split, p, sched, dt=0.025)
    full = _full_node_channels(h_eff, psi0, p, sched, rep.t_grid, channels)
    for c, name in enumerate(("L", "R")):
        assert np.abs(full[name] - split[c] * rep.pulse_shape).max() <= 1e-7
        assert np.abs(full[name] - rep.channel_pulses[name]).max() <= 1e-7


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


def test_overlap_of_unequal_schedules_does_not_depend_on_the_argument_order():
    # the longer envelope's tail past the shorter grid counts in its norm:
    # at t_total 50 against 400 the two orders read 0.01373 and 0.002186
    # when it did not
    short = evolve((0.6, 0.8j), SystemParams(side=Side.ALICE),
                   PulseSchedule(omega_max=2.0, t_total=50.0), 0.05)
    long = evolve(EVEN, SystemParams(side=Side.BOB),
                  PulseSchedule(omega_max=2.0 * math.sqrt(2), t_total=400.0), 0.05)
    forward = abs(pulse_overlap_complex(short.t_grid, short.pulse_shape,
                                        long.t_grid, long.pulse_shape)) ** 2
    reverse = abs(pulse_overlap_complex(long.t_grid, long.pulse_shape,
                                        short.t_grid, short.pulse_shape)) ** 2
    assert forward == pytest.approx(reverse, rel=1e-3, abs=0.0)


def test_overlap_of_equal_schedules_keeps_its_bits():
    # a second grid ending with the first adds a tail of exactly 0.0; at
    # t_total 100 the two passages refine to grids of their own
    a = evolve((0.6, 0.8j), SystemParams(side=Side.ALICE),
               PulseSchedule(omega_max=2.0, t_total=100.0), 0.05)
    b = evolve(EVEN, SystemParams(side=Side.BOB),
               PulseSchedule(omega_max=2.0 * math.sqrt(2), t_total=100.0), 0.05)
    assert len(a.t_grid) != len(b.t_grid) and a.t_grid[-1] == b.t_grid[-1]
    f2 = adiabatic._resample(a.t_grid, b.t_grid, b.pulse_shape)
    n1 = np.trapezoid(np.abs(a.pulse_shape) ** 2, a.t_grid)
    n2 = np.trapezoid(np.abs(f2) ** 2, a.t_grid)
    want = complex(np.trapezoid(np.conj(a.pulse_shape) * f2, a.t_grid) / math.sqrt(n1 * n2))
    assert pulse_overlap_complex(a.t_grid, a.pulse_shape, b.t_grid, b.pulse_shape) == want


def test_pulse_shape_analytic_rejects_bad_grid():
    p = SystemParams(side=Side.ALICE)
    with pytest.raises(ValueError):
        pulse_shape_analytic(p, FAST, np.array([1.0, 2.0, 3.0]))   # must start at 0
    with pytest.raises(ValueError):
        pulse_shape_analytic(p, FAST, np.array([0.0, 1.0]))        # too short
