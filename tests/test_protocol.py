"""End-to-end protocol runs scored against the exact projection algebra."""

import json
import math
import re
import tracemalloc
import warnings
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from clonesim import cloner, optics, protocol, qstate
from clonesim.cloner import InputQubit, clone, clone_fidelity, haar_qubit, unot_fidelity
from clonesim.config import ConfigError, parse_config_text, settings_from_values
from clonesim.optics import PATH_A, PATH_B, POLS, one_photon
from clonesim.protocol import (
    ATOM_B,
    MAX_MC_TRIALS,
    CloneReport,
    DetectorParams,
    Mode,
    NodeConfig,
    ProtocolConfig,
    SUMMARY_COLUMNS,
    assemble_joint,
    detector_model,
    fmt,
    pulse_csv,
    report_json,
    report_to_dict,
    run,
    run_analytic,
    run_dynamic,
    summary_csv,
)
from clonesim.adiabatic import PulseSchedule, Side, SystemParams
from clonesim.qstate import Space, StateVector, tensor
from test_cli import ZERO_HERALD_CFG


def _report(a, b) -> CloneReport:
    return run_analytic(ProtocolConfig(input=InputQubit.normalized(a, b)))


# --- the pair entering the interference stage -------------------------------


@pytest.mark.parametrize("alpha,beta", [
    pytest.param((0.6, 0.8j), (1 / math.sqrt(2), 1 / math.sqrt(2)), id="analytic"),
    pytest.param((-0.6 + 0.1j, 0.3 - 0.74j), (0.28 - 0.96j, -0.8j), id="complex"),
    pytest.param((1.0, 0.0), (0.6, 0.8), id="alpha-L-only"),
    pytest.param((0.0, -1j), (0.6, 0.8), id="alpha-R-only"),
    pytest.param((0.6, 0.8), (1.0, 0.0), id="beta-L-only"),
    pytest.param((0.6, 0.8), (0.0, 1.0), id="beta-R-only"),
])
def test_assemble_joint_is_the_waveplated_pair_written_out(alpha, beta):
    # quarter-wave plates take L -> H and R -> V; the half-wave plate on path B
    # flips V: alpha_p beta_L |p, H, gR> - alpha_p beta_R |p, V, gL>, no zero kept
    atom = Space(((ATOM_B, ("gL", "gR")),))
    expect = {}
    for p, a in zip(POLS, alpha):
        for q, level, b in (("H", "gR", beta[0]), ("V", "gL", -beta[1])):
            term = tensor(tensor(one_photon(PATH_A, {p: 1.0}), one_photon(PATH_B, {q: 1.0})),
                          StateVector(atom, {atom.label({ATOM_B: level}): 1.0}))
            if a * b != 0:
                expect[next(iter(term.amps))] = a * b
    joint = assemble_joint(alpha, beta)
    assert joint.space == term.space
    assert joint.amps == expect


# --- analytic route vs exact algebra ----------------------------------------


def test_analytic_route_matches_projection_algebra():
    rng = np.random.default_rng(23)
    for _ in range(20):
        q = haar_qubit(rng)
        rep = run_analytic(ProtocolConfig(input=q))
        assert rep.clone_fidelity_1 == pytest.approx(clone_fidelity(q), abs=1e-10)
        assert rep.clone_fidelity_2 == pytest.approx(clone_fidelity(q), abs=1e-10)
        assert rep.telenot_fidelity == pytest.approx(unot_fidelity(q), abs=1e-10)
        assert rep.p_symmetric == pytest.approx(clone(q).branch_prob, abs=1e-10)


def test_clone_arms_are_symmetric():
    rep = _report(0.3 - 0.4j, 0.5 + 0.7j)
    assert rep.clone_fidelity_1 == pytest.approx(rep.clone_fidelity_2, abs=1e-12)


def test_scores_are_input_independent():
    rng = np.random.default_rng(29)
    vals = np.array([run_analytic(ProtocolConfig(input=haar_qubit(rng))).clone_fidelity_1
                     for _ in range(30)])
    assert vals.var() < 1e-20


def test_p_symmetric_is_exactly_three_quarters():
    # (1 + sigma/n)/2 from the norm and exchange overlap the projection read:
    # no second sum over the pair, so no last-bit spread across inputs
    rng = np.random.default_rng(37)
    assert {run_analytic(ProtocolConfig(input=haar_qubit(rng))).p_symmetric
            for _ in range(100)} == {0.75}


def test_operational_probability_decomposition():
    rep = _report(0.6, 0.8)
    assert rep.p_symmetric == pytest.approx(0.75, abs=1e-12)
    assert rep.p_operational == pytest.approx(0.375, abs=1e-12)   # V=1 coincidence rate
    dist = rep.count_distribution
    assert dist[(1, 1, 0, 0)] == pytest.approx(0.1875, abs=1e-12)
    assert dist[(0, 0, 1, 1)] == pytest.approx(0.1875, abs=1e-12)
    assert sum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_telenot_check_agrees_with_report():
    # the reported tele-NOT fidelity against the cloner oracle's anti-clone
    q = InputQubit.normalized(0.8, -0.6j)
    rep = run_analytic(ProtocolConfig(input=q))
    assert rep.telenot_fidelity == pytest.approx(unot_fidelity(q), abs=1e-12)


def test_run_dispatches_on_mode():
    rep = run(ProtocolConfig(input=InputQubit(0.6, 0.8), mode="analytic"))
    assert rep.config.mode is Mode.ANALYTIC


# --- detector model -----------------------------------------------------------


def test_efficiency_scaling_is_exact():
    rep = _report(0.6, 0.8)
    for eta in (0.0, 0.25, 0.5, 1.0):
        d = detector_model(rep, eta, 0.0, 10.0, seed=0)
        assert d.p_detected == rep.p_operational * eta * eta
        assert d.clone_fidelity_1 == rep.clone_fidelity_1     # untouched, bit for bit


def test_dark_counts_dilute_toward_half():
    rep = _report(0.6, 0.8)
    d = detector_model(rep, 0.25, 5e-4, 10.0, seed=0)
    w = d.false_herald_fraction
    assert 0.0 < w < 1.0
    assert d.p_detected > rep.p_operational * 0.25 ** 2       # extra false heralds
    assert d.clone_fidelity_1 == pytest.approx((1 - w) * rep.clone_fidelity_1 + w / 2,
                                               abs=1e-12)
    assert d.telenot_fidelity == pytest.approx((1 - w) * rep.telenot_fidelity + w / 2,
                                               abs=1e-12)
    assert d.rho_post.trace() == pytest.approx(1.0, abs=1e-12)


def test_detection_monte_carlo_agrees_with_closed_form():
    rep = _report(0.6, 0.8)
    d = detector_model(rep, 0.5, 2e-4, 10.0, seed=11, trials=40_000)
    assert d.mc_trials == 40_000
    assert abs(d.mc_p_detected - d.p_detected) < 3.0 * d.mc_sigma
    # same seed, same estimate
    d2 = detector_model(rep, 0.5, 2e-4, 10.0, seed=11, trials=40_000)
    assert d2.mc_p_detected == d.mc_p_detected


def test_seeded_monte_carlo_ignores_pattern_order():
    # the draw depends on the distribution only, not on the order optics met it
    rep = _report(0.6, 0.8)
    flipped = replace(rep, count_distribution=dict(reversed(rep.count_distribution.items())))
    assert list(flipped.count_distribution) != list(rep.count_distribution)
    d = detector_model(rep, 0.5, 2e-4, 10.0, seed=11, trials=40_000)
    assert detector_model(flipped, 0.5, 2e-4, 10.0, seed=11, trials=40_000).mc_p_detected \
        == d.mc_p_detected


def test_dark_count_closed_form_ignores_pattern_order():
    # the closed-form sums run over sorted patterns, so they are bit-identical
    rep = _report(0.6, 0.8)
    flipped = replace(rep, count_distribution=dict(reversed(rep.count_distribution.items())))
    for eta, dark in ((0.5, 2e-4), (0.25, 5e-4), (0.9, 3e-3)):
        d = detector_model(rep, eta, dark, 10.0, seed=0)
        f = detector_model(flipped, eta, dark, 10.0, seed=0)
        assert f.p_detected == d.p_detected
        assert f.false_herald_fraction == d.false_herald_fraction


def test_seeded_monte_carlo_is_pinned():
    # one binomial draw of the herald count, PCG64(2026).binomial(20_000, p);
    # all three emission branches enter this one
    rep = replace(_report(0.6, 0.8), emission_prob_alice=0.9, emission_prob_bob=0.7)
    d = detector_model(rep, 0.6, 1e-3, 10.0, seed=2026, trials=20_000)
    assert d.mc_p_detected == 0.09045     # 1,809 heralds
    assert d.p_detected == 0.09216856227037001


def test_seeded_monte_carlo_ignores_last_bit_changes():
    # requests of the benchmark's analytic mix with dark counts and a
    # 20,000-trial Monte Carlo: an ulp on every pattern probability moves the
    # herald probability by a few ulps, which no seeded draw notices
    rng = np.random.default_rng(2323)
    moved = []
    for _ in range(400):
        rep = run_analytic(ProtocolConfig(input=haar_qubit(rng)))
        eta, dark = rng.uniform(0.5, 1.0), rng.uniform(1e-4, 4e-3)
        seed = int(rng.integers(0, 2 ** 31))
        bumped = replace(rep, count_distribution={
            pat: float(np.nextafter(q, 2.0)) for pat, q in rep.count_distribution.items()})
        assert bumped.count_distribution != rep.count_distribution
        a, b = (detector_model(r, eta, dark, 10.0, seed=seed, trials=20_000).mc_p_detected
                for r in (rep, bumped))
        if a != b:
            moved.append((seed, a, b))
    assert moved == []


def test_detection_monte_carlo_never_calls_the_closed_form(monkeypatch):
    rep = _report(0.6, 0.8)
    d = detector_model(rep, 0.5, 2e-4, 10.0, seed=11, trials=40_000)

    def never(*args):
        raise AssertionError("the Monte Carlo read the closed form")

    monkeypatch.setattr(protocol, "_closed_form", never)
    p_dark = 1.0 - math.exp(-2e-4 * 10.0)
    assert protocol._detection_mc(protocol._pattern_probabilities(rep), 0.5, p_dark, 11,
                                  40_000) == d.mc_p_detected


def test_a_refold_without_trials_drops_the_earlier_estimate():
    # the Monte Carlo fields come from the fold's own trials: a report folded
    # again with trials=0 carries no estimate next to its new p_detected
    with_mc = detector_model(_report(0.6, 0.8), 1.0, 0.0, 10.0, seed=3, trials=20_000)
    assert with_mc.mc_trials == 20_000 and with_mc.mc_p_detected is not None
    again = detector_model(with_mc, 0.3, 0.0, 10.0, seed=3)
    assert (again.mc_p_detected, again.mc_trials, again.mc_sigma) == (None, 0, 0.0)
    assert "monte_carlo" not in report_to_dict(again)


def test_a_folded_report_records_its_detector():
    rep = _report(0.6, 0.8)
    folded = detector_model(rep, 0.3, 1e-3, 12.0, seed=7, trials=500)
    assert folded.config == replace(rep.config, detector=DetectorParams(0.3, 1e-3, 12.0),
                                    seed=7, mc_trials=500)
    doc = report_to_dict(folded)
    assert doc["config"]["detector"] == {"eta": 0.3, "dark_rate": 1e-3, "window": 12.0}
    assert doc["config"]["seed"] == 7 and doc["monte_carlo"]["trials"] == 500
    row = dict(zip(*(line.split(",") for line in summary_csv(folded).splitlines())))
    assert (row["eta"], row["dark_rate"], row["window"], row["seed"]) == \
        ("0.3", "0.001", "12", "7")
    # a run folds with its own config's detector, whose config object it keeps
    cfg = ProtocolConfig(input=InputQubit(0.6, 0.8), detector=DetectorParams(0.3, 1e-3, 12.0),
                         seed=7, mc_trials=500)
    assert run(cfg).config is cfg
    assert report_json(run(cfg)) == report_json(folded)


@pytest.mark.parametrize("pattern", [(3, 0, 0, 0), (1, 1, 0)],
                         ids=["three-photons", "three-detectors"])
@pytest.mark.parametrize("dark_rate, trials", [(2e-4, 0), (0.0, 1000)],
                         ids=["closed-form", "monte-carlo"])
def test_count_pattern_outside_the_table_is_refused(monkeypatch, pattern, dark_rate, trials):
    # a pattern that two photons on four detectors cannot leave is refused by
    # name, before the closed form or the Monte Carlo reads it
    def never(*args):
        raise AssertionError("a refused pattern reached the detector arithmetic")

    monkeypatch.setattr(protocol, "_closed_form", never)
    monkeypatch.setattr(protocol, "_detection_mc", never)
    rep = replace(_report(0.6, 0.8), count_distribution={pattern: 1.0})
    with pytest.raises(ValueError,
                       match=re.escape(repr(pattern)) + ".*two photons enter the network"):
        detector_model(rep, 0.5, dark_rate, 10.0, seed=1, trials=trials)


def test_clone_two_reuses_clone_one_only_on_equal_reductions(monkeypatch):
    calls = []

    def counted(m, t0, t1):
        calls.append(m.tolist())
        return qstate._fidelity(m, t0, t1)

    # a heralded state: both clones' reductions agree byte for byte
    rep = _report(0.6, 0.8)
    monkeypatch.setattr(protocol, "_fidelity", counted)
    f1, f2, _ = protocol._score(rep.rho_post, rep.config.input)
    assert len(calls) == 2 and f2 == f1 == rep.clone_fidelity_1
    # |gL, H, V>: ph3 holds H and ph4 holds V, so clone 2 is scored on its own
    calls.clear()
    e = np.zeros(8)
    e[1] = 1.0      # row index 4 atomB + 2 ph3 + ph4
    rho = qstate.DensityMatrix.from_array(protocol._SCORED_SPACE, np.outer(e, e).astype(complex))
    assert protocol._score(rho, InputQubit(1.0, 0.0)) == (1.0, 0.0, 0.0)
    assert len(calls) == 3


def test_analytic_request_scores_without_the_labeled_layer(monkeypatch):
    # the analytic request scores on arrays: partial_trace, fidelity_pure and
    # tensor raise at every name protocol and cloner (and the modules they
    # call) look them up by, and the request still passes
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on the analytic route")
        return call

    for mod, names in ((protocol, ("partial_trace", "fidelity_pure", "tensor")),
                       (cloner, ("partial_trace", "fidelity_pure", "tensor")),
                       (optics, ("partial_trace", "tensor")),
                       (qstate, ("partial_trace", "fidelity_pure", "tensor"))):
        for name in names:
            monkeypatch.setattr(mod, name, refuse(name))
    q = InputQubit(0.6, 0.8j)
    for detector, trials in ((DetectorParams(), 0), (DetectorParams(0.9, 2e-3), 1_000)):
        rep = run_analytic(ProtocolConfig(input=q, detector=detector, mc_trials=trials))
        w = rep.false_herald_fraction
        for f, const in ((rep.clone_fidelity_1, 5 / 6), (rep.clone_fidelity_2, 5 / 6),
                         (rep.telenot_fidelity, 2 / 3)):
            assert (f - 0.5 * w) / (1.0 - w) == pytest.approx(const, abs=1e-12)
    assert clone_fidelity(q) == pytest.approx(5 / 6, abs=1e-12)
    assert unot_fidelity(q) == pytest.approx(2 / 3, abs=1e-12)


def test_analytic_request_never_labels_the_pair(monkeypatch):
    # once a first request has filled the layout caches, no basis label is
    # built or read on the analytic route: Space.label, Space.labels and
    # StateVector.amps raise, and the request still passes
    run_analytic(ProtocolConfig(input=InputQubit(0.6, 0.8j)))

    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called on the analytic route")
        return call

    monkeypatch.setattr(Space, "label", refuse("Space.label"))
    monkeypatch.setattr(Space, "labels", refuse("Space.labels"))
    monkeypatch.setattr(StateVector, "amps", property(refuse("StateVector.amps")))
    q = InputQubit(0.6, 0.8j)
    for detector, trials in ((DetectorParams(), 0), (DetectorParams(0.9, 2e-3), 0),
                             (DetectorParams(0.9, 2e-3), 20_000)):
        rep = run_analytic(ProtocolConfig(input=q, detector=detector, mc_trials=trials))
        w = rep.false_herald_fraction
        assert rep.clone_fidelity_1 == rep.clone_fidelity_2
        assert (rep.clone_fidelity_1 - 0.5 * w) / (1.0 - w) == pytest.approx(5 / 6, abs=1e-12)
        assert rep.p_symmetric == pytest.approx(0.75, abs=1e-12)
        assert rep.p_operational == pytest.approx(0.375, abs=1e-12)
        assert rep.post_state is not None and rep.mc_trials == trials


def _same(a, b) -> bool:
    """One field of two reports: the same object, equal, or both nan."""
    return a is b or a == b or (isinstance(a, float) and math.isnan(a) and math.isnan(b))


@pytest.mark.parametrize("config", [
    pytest.param(lambda: ProtocolConfig(input=InputQubit(0.6, 0.8j)), id="plain"),
    pytest.param(lambda: ProtocolConfig(input=InputQubit(0.6, 0.8j),
                                        detector=DetectorParams(0.8, 2e-3)), id="dark-counts"),
    pytest.param(lambda: ProtocolConfig(input=InputQubit(0.6, 0.8j),
                                        detector=DetectorParams(0.8, 2e-3), mc_trials=1000),
                 id="monte-carlo"),
    pytest.param(lambda: parse_config_text(ZERO_HERALD_CFG).config, id="zero-herald"),
])
def test_report_constructor_is_the_dataclass_init(monkeypatch, config):
    # each report a run builds sets every field, equal to what the public
    # __init__ builds from the same values, and stays frozen
    built = []
    private = CloneReport._from_fields

    def both(**values):
        built.append((private(**values), CloneReport(**values)))
        return built[-1][0]

    monkeypatch.setattr(CloneReport, "_from_fields", both)
    final = run(config())
    names = {f.name for f in fields(CloneReport)}
    assert len(built) == 2 and built[-1][0] is final
    for report, public in built:
        assert set(vars(report)) == names
        assert all(_same(getattr(report, name), getattr(public, name)) for name in names)
        with pytest.raises(FrozenInstanceError):
            report.p_detected = 0.0


def test_detector_params_validation():
    with pytest.raises(ValueError):
        DetectorParams(eta=1.5)
    with pytest.raises(ValueError):
        DetectorParams(window=0.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        DetectorParams(dark_rate=0.5, window=10.0)   # dark_rate*window far from small
    assert not caught                                # a run notes it in its report


def test_detector_model_checks_ranges():
    rep = _report(0.6, 0.8)
    for eta, dark, window in ((1.5, 0.0, 10.0), (0.5, -1e-4, 10.0), (0.5, 0.0, 0.0)):
        with pytest.raises(ValueError):
            detector_model(rep, eta, dark, window, seed=0)


def test_large_dark_count_run_is_noted_once():
    # the condition is one report note, never a warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = run(ProtocolConfig(input=InputQubit(0.6, 0.8),
                                 detector=DetectorParams(eta=0.9, dark_rate=0.03, window=10.0)))
    assert not caught
    assert [n for n in rep.diagnostics if "dark_rate*window" in n] == [
        "dark_rate*window = 0.3 is not small; the per-window dark-click model assumes << 1"]
    assert report_to_dict(rep)["diagnostics"] == list(rep.diagnostics)


def test_detector_model_rejects_negative_trials(monkeypatch):
    # ProtocolConfig rejects a negative mc_trials; the model must too, before any work
    rep = _report(0.6, 0.8)

    def never(*args):
        raise AssertionError("the model ran before its arguments were checked")

    monkeypatch.setattr(protocol, "_pattern_probabilities", never)
    with pytest.raises(ValueError, match="budget"):
        detector_model(rep, 0.5, 2e-4, 10.0, seed=1, trials=-5)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_detector_model_refuses_a_bad_seed_up_front(monkeypatch, seed):
    # a negative seed used to reach numpy only after the closed form had run,
    # and a float seed raised TypeError there
    rep = _report(0.6, 0.8)

    def never(*args):
        raise AssertionError("the model ran before its seed was checked")

    monkeypatch.setattr(protocol, "_pattern_probabilities", never)
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        detector_model(rep, 0.5, 2e-4, 10.0, seed=seed, trials=100)
    monkeypatch.undo()
    # ProtocolConfig checks only the sign, so the run refuses a float seed
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        run(ProtocolConfig(input=InputQubit(0.6, 0.8), seed=1.5, mc_trials=10))


def test_config_validation():
    with pytest.raises(ValueError):
        ProtocolConfig(input=InputQubit(1.0, 0.0), dt=0.0)
    with pytest.raises(ValueError):
        ProtocolConfig(input=InputQubit(1.0, 0.0), mc_trials=-1)
    bad_bob = NodeConfig(SystemParams(side=Side.ALICE), PulseSchedule())
    with pytest.raises(ValueError):
        ProtocolConfig(input=InputQubit(1.0, 0.0), bob=bad_bob)
    with pytest.raises(ValueError, match="seed"):
        ProtocolConfig(input=InputQubit(1.0, 0.0), seed=-1)


_NAN = float("nan")


@pytest.mark.parametrize("build", [
    pytest.param(lambda v: InputQubit(v, 0.0), id="InputQubit.a"),
    pytest.param(lambda v: InputQubit(1.0, v), id="InputQubit.b"),
    pytest.param(lambda v: DetectorParams(eta=v), id="DetectorParams.eta"),
    pytest.param(lambda v: DetectorParams(dark_rate=v), id="DetectorParams.dark_rate"),
    pytest.param(lambda v: DetectorParams(window=v), id="DetectorParams.window"),
    pytest.param(lambda v: detector_model(_report(0.6, 0.8), 1.0, v, 10.0, seed=0),
                 id="detector_model.dark_rate"),
    pytest.param(lambda v: detector_model(_report(0.6, 0.8), 1.0, 0.0, v, seed=0),
                 id="detector_model.window"),
    pytest.param(lambda v: SystemParams(g=v), id="SystemParams.g"),
    pytest.param(lambda v: SystemParams(kappa=v), id="SystemParams.kappa"),
    pytest.param(lambda v: SystemParams(gamma=v), id="SystemParams.gamma"),
    pytest.param(lambda v: SystemParams(delta=v), id="SystemParams.delta"),
    pytest.param(lambda v: SystemParams(nu=v), id="SystemParams.nu"),
    pytest.param(lambda v: PulseSchedule(omega_max=v), id="PulseSchedule.omega_max"),
    pytest.param(lambda v: PulseSchedule(t_total=v), id="PulseSchedule.t_total"),
    pytest.param(lambda v: ProtocolConfig(input=InputQubit(1.0, 0.0), dt=v), id="ProtocolConfig.dt"),
])
def test_nan_fails_every_range_check(build):
    with pytest.raises(ValueError):
        build(_NAN)


def test_mc_trial_budget_is_a_config_error(monkeypatch):
    # the budget is the largest count at which numpy's binomial draw still
    # follows its law (its tail counts drift from it at 2**60 and above)
    assert MAX_MC_TRIALS == 2 ** 56
    with pytest.raises(ValueError, match="budget"):
        ProtocolConfig(input=InputQubit(1.0, 0.0), mc_trials=MAX_MC_TRIALS + 1)
    values = {"seed": "1", "input.a": "1", "input.b": "0",
              "detector.mc_trials": str(2 ** 63)}
    with pytest.raises(ConfigError, match="budget"):
        settings_from_values(values, mode="dynamic")
    monkeypatch.setattr(protocol, "MAX_MC_TRIALS", 100)
    rep = _report(0.6, 0.8)
    with pytest.raises(ValueError, match="budget"):
        detector_model(rep, 0.5, 2e-4, 10.0, seed=1, trials=101)
    assert detector_model(rep, 0.5, 2e-4, 10.0, seed=1, trials=100).mc_trials == 100


def test_mc_peak_memory_does_not_grow_with_trials():
    # the herald count is one draw, so ten times the trials hold no more
    rep = _report(0.6, 0.8)
    detector_model(rep, 0.5, 2e-4, 10.0, seed=1, trials=20_000)   # one-time setup
    peaks = []
    for trials in (20_000, 200_000):
        tracemalloc.start()
        try:
            detector_model(rep, 0.5, 2e-4, 10.0, seed=1, trials=trials)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.5 * peaks[0]


# --- dynamic route --------------------------------------------------------------


@pytest.fixture(scope="module")
def dynamic_report():
    cfg = ProtocolConfig(input=InputQubit(0.6, 0.8), mode=Mode.DYNAMIC, seed=3)
    return run_dynamic(cfg)


def test_dynamic_run_approaches_ideal_scores(dynamic_report):
    rep = dynamic_report
    assert abs(rep.clone_fidelity_1 - 5.0 / 6.0) < 1e-3
    assert abs(rep.telenot_fidelity - 2.0 / 3.0) < 1e-3
    assert rep.p_symmetric == pytest.approx(0.75, abs=1e-9)


def test_dynamic_visibility_and_emission(dynamic_report):
    rep = dynamic_report
    assert rep.overlap_visibility > 0.99
    assert rep.emission_prob_alice > 0.95
    assert rep.emission_prob_bob > 0.95
    assert rep.p_operational == pytest.approx(
        rep.emission_prob_alice * rep.emission_prob_bob
        * (rep.overlap_visibility * 0.375 + (1 - rep.overlap_visibility) * 0.25),
        abs=1e-9)


def test_dynamic_diagnostics_recorded(dynamic_report):
    rep = dynamic_report
    assert len(rep.dynamics_diags) == 2
    for dyn in rep.dynamics_diags:
        assert dyn.closure_error < 1e-8


def _brisk(q: InputQubit, kappa_alice: float = 1.0) -> ProtocolConfig:
    """The dynamic config of ``q`` on the brisk t_total-25 schedule, matched drives."""
    alice = NodeConfig(SystemParams(side=Side.ALICE, kappa=kappa_alice),
                       PulseSchedule(omega_max=2.0, t_total=25.0))
    bob = NodeConfig(SystemParams(side=Side.BOB),
                     PulseSchedule(omega_max=2.0 * math.sqrt(2.0), t_total=25.0))
    return ProtocolConfig(input=q, mode=Mode.DYNAMIC, alice=alice, bob=bob, dt=0.025)


def test_integrated_scores_are_input_independent():
    # every input rides the same integrated envelope and enters only as its
    # split, so the visibility, the probabilities and the emissions take one
    # value and the fidelities are universal, as the ideal ones are
    rng = np.random.default_rng(31)
    reps = [run_dynamic(_brisk(haar_qubit(rng))) for _ in range(100)]
    for name in ("clone_fidelity_1", "clone_fidelity_2", "telenot_fidelity"):
        assert np.var([getattr(r, name) for r in reps]) <= 1e-20, name
    for name in ("overlap_visibility", "p_operational", "emission_prob_alice",
                 "emission_prob_bob"):
        assert len({getattr(r, name) for r in reps}) == 1, name
    assert {r.p_symmetric for r in reps} == {0.75}
    assert reps[0].clone_fidelity_1 == pytest.approx(5.0 / 6.0, abs=2e-3)


def test_integrated_post_state_is_the_analytic_one():
    # both routes pair the same splits, so the heralded pure state agrees bit
    # for bit, global phase included, whichever channel is the larger
    for a, b in ((0.6, 0.8j), (0.8j, 0.6)):
        q = InputQubit(a, b)
        dynamic = run_dynamic(_brisk(q)).post_state
        ideal = run_analytic(ProtocolConfig(input=q)).post_state
        assert dynamic.space == ideal.space
        assert dynamic.vector.tobytes() == ideal.vector.tobytes(), (a, b)


def test_degenerate_emission_is_noted():
    # starve the remote node so almost nothing is emitted
    brisk = NodeConfig(SystemParams(side=Side.ALICE),
                       PulseSchedule(omega_max=2.0, t_total=25.0))
    lazy = NodeConfig(SystemParams(side=Side.BOB),
                      PulseSchedule(omega_max=0.05, t_total=25.0))
    cfg = ProtocolConfig(input=InputQubit(0.6, 0.8), mode=Mode.DYNAMIC,
                         alice=brisk, bob=lazy, dt=0.025, emission_floor=0.5)
    rep = run_dynamic(cfg)
    assert [n for n in rep.diagnostics if "degenerate" in n] == [
        f"bob emission {rep.emission_prob_bob:.6g} below floor 0.5: protocol degenerate"]


# --- serialization ---------------------------------------------------------------


def test_summary_header_is_pinned():
    assert SUMMARY_COLUMNS == (
        "mode", "a_re", "a_im", "b_re", "b_im",
        "clone_fidelity_1", "clone_fidelity_2", "telenot_fidelity",
        "p_symmetric", "p_operational", "p_detected", "overlap_visibility",
        "emission_prob_alice", "emission_prob_bob", "false_herald_fraction",
        "eta", "dark_rate", "window", "seed")
    rep = _report(0.6, 0.8)
    csv = summary_csv(rep)
    header, row = csv.strip().split("\n")
    assert header == ",".join(SUMMARY_COLUMNS)
    assert len(row.split(",")) == len(SUMMARY_COLUMNS)


def test_report_json_is_deterministic_and_loadable():
    rep1, rep2 = _report(0.6, 0.8), _report(0.6, 0.8)
    assert report_json(rep1) == report_json(rep2)
    doc = json.loads(report_json(rep1))
    assert doc["results"]["clone_fidelity_1"] == pytest.approx(5.0 / 6.0, abs=1e-12)
    assert "timestamp" not in json.dumps(doc)


def test_report_dict_covers_counts_and_state():
    doc = report_to_dict(_report(0.6, 0.8))
    assert "1,1,0,0" in doc["count_distribution"]
    assert doc["config"]["mode"] == "analytic"


def _pulse_csv_per_cell(rep) -> str:
    """pulse_csv as it was first written: one fmt call per cell."""
    lines = ["t,re_f,im_f"]
    for t, f in zip(rep.t_grid, rep.pulse_shape):
        lines.append(f"{fmt(t)},{fmt(f.real)},{fmt(f.imag)}")
    return "\n".join(lines) + "\n"


def test_pulse_csv_matches_per_cell_reference(dynamic_report):
    rep = dynamic_report.dynamics_diags[0]
    assert pulse_csv(rep) == _pulse_csv_per_cell(rep)
    edge = np.array([0.0, -0.0, 1e-300, 1e300, np.nan, -np.inf, 1.0 / 3.0, 5e-324])
    shape = np.empty(len(edge), dtype=complex)
    shape.real, shape.imag = edge[::-1], edge
    odd = replace(rep, t_grid=edge, pulse_shape=shape)
    assert pulse_csv(odd) == _pulse_csv_per_cell(odd)
    assert "-0," in pulse_csv(odd) and "nan" in pulse_csv(odd)


def test_pulse_csvs_hold_no_negative_zero():
    # each envelope is sqrt(kappa) c(t) of its block; a negative amplitude
    # times sqrt(0) is -0.0, so a kappa = 0 node must not leave a -0 cell in
    # its pulse file either
    for kappa in (1.0, 0.0):
        rep = run_dynamic(_brisk(InputQubit(0.6, 0.8j), kappa_alice=kappa))
        for dyn in rep.dynamics_diags:
            cells = [cell for row in pulse_csv(dyn).splitlines()[1:] for cell in row.split(",")]
            assert "-0" not in cells, (kappa, dyn.params.side)


def test_pulse_csv_shape(dynamic_report):
    text = pulse_csv(dynamic_report.dynamics_diags[0])
    lines = text.strip().split("\n")
    assert lines[0] == "t,re_f,im_f"
    assert len(lines) == len(dynamic_report.dynamics_diags[0].t_grid) + 1
