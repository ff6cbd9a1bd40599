"""Names the benchmark (perfbench/run.py) wraps or calls stay importable.

Its traced pass replaces each of these module attributes with a timing
wrapper, looking them up where callers find them; a name that disappears in a
cleanup breaks that pass with an AttributeError.  The list is kept here so
the check runs with the unit tests and needs nothing outside ``clonesim``.
"""

import importlib

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
