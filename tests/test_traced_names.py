"""Names the benchmark (perfbench/run.py) wraps, calls or reads stay in place.

Its traced pass replaces each of these module attributes with a timing
wrapper, looking them up where callers find them, and its observers read
fields of the reports those functions return; a name that disappears in a
cleanup breaks that pass with an AttributeError.  The lists are kept here so
the check runs with the unit tests and needs nothing outside ``clonesim``.
"""

import dataclasses
import importlib
from collections import Counter

import pytest

USED_BY_BENCHMARK = {
    "protocol": ("evolve", "pulse_overlap_complex", "detection_bookkeeping",
                 "symmetric_project", "partial_trace", "tensor", "fidelity_pure",
                 "run", "detector_model"),
    "optics": ("symmetric_project", "partial_trace", "tensor"),
    "cloner": ("clone", "partial_trace", "tensor", "fidelity_pure",
               "clone_fidelity", "unot_fidelity"),
    "cli": ("main", "run", "report_json", "pulse_csv", "summary_csv", "load_config",
            "settings_from_values", "values_from_text"),
    "config": ("settings_from_values",),
}


@pytest.mark.parametrize("module,name", [(m, n) for m, names in USED_BY_BENCHMARK.items()
                                         for n in names])
def test_benchmark_name_is_callable(module, name):
    mod = importlib.import_module(f"clonesim.{module}")
    assert callable(getattr(mod, name, None)), f"clonesim.{module}.{name} is gone"


FIELDS_READ_BY_BENCHMARK = {
    ("adiabatic", "DynamicsReport"): ("t_grid", "omega", "closure_error", "pulse_shape",
                                      "channel_pulses"),
    ("protocol", "CloneReport"): ("rho_post", "mc_trials"),
    ("optics", "DetectionReport"): ("count_distribution",),
}


@pytest.mark.parametrize("module,report,name",
                         [(m, r, n) for (m, r), names in FIELDS_READ_BY_BENCHMARK.items()
                          for n in names])
def test_benchmark_report_field_exists(module, report, name):
    cls = getattr(importlib.import_module(f"clonesim.{module}"), report)
    assert name in {f.name for f in dataclasses.fields(cls)}, f"{report}.{name} is gone"


def test_rho_post_entries_count_its_non_zero_entries():
    # perfbench counts len(report.rho_post.entries) after each analytic run
    from clonesim.cloner import InputQubit
    from clonesim.protocol import ProtocolConfig, run

    rho = run(ProtocolConfig(input=InputQubit(0.6, 0.8j))).rho_post
    assert len(rho.entries) == sum(1 for v in rho.matrix.flat if v != 0) > 0


# the stages of an analytic run that the traced pass times as their own spans
TRACED_STAGES = ("symmetric_project", "detection_bookkeeping", "detector_model")


@pytest.mark.parametrize("detector,trials", [
    pytest.param({}, 0, id="plain"),
    pytest.param({"eta": 0.8, "dark_rate": 2e-3}, 0, id="dark-counts"),
    pytest.param({"eta": 0.8, "dark_rate": 2e-3}, 1000, id="monte-carlo"),
])
def test_analytic_run_calls_each_traced_stage_once(monkeypatch, detector, trials):
    # a wrapper set on the module attribute records a span only if the run
    # looks the stage up there; a run that reaches it some other way (a
    # local alias, an inlined body) leaves that layer's span at zero
    from clonesim import protocol
    from clonesim.cloner import InputQubit

    calls = Counter()
    for name in TRACED_STAGES:
        def counted(*args, _inner=getattr(protocol, name), _name=name, **kwargs):
            calls[_name] += 1
            return _inner(*args, **kwargs)
        monkeypatch.setattr(protocol, name, counted)
    protocol.run(protocol.ProtocolConfig(input=InputQubit(0.6, 0.8j),
                                         detector=protocol.DetectorParams(**detector),
                                         mc_trials=trials))
    assert calls == Counter(TRACED_STAGES)
