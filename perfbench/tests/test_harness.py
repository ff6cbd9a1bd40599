"""Tests of the benchmark harness itself (not of clonesim).

Run with ``python3 -m pytest perfbench/tests -q`` from the root of a checkout.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import benchstats  # noqa: E402
import calibration  # noqa: E402
import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402


# ---------------------------------------------------------------------------
# tail percentile
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n, expected", [
    (1, (50.0, 0)),
    (5, (50.0, 2)),
    (20, (50.0, 10)),
    (40, (75.0, 10)),
    (200, (95.0, 10)),
    (999, (99.0, 10)),
    (1000, (99.0, 10)),
    (10000, (99.0, 100)),
])
def test_tail_percentile_rule(n, expected):
    assert benchstats.tail_percentile(n) == expected


def test_tail_has_at_least_ten_samples_beyond():
    rng = np.random.default_rng(0)
    for n in (20, 57, 300, 4321):
        xs = list(rng.random(n))
        p, beyond = benchstats.tail_percentile(n)
        value = benchstats.percentile(xs, p)
        assert sum(x > value for x in xs) >= benchstats.TAIL_MIN_BEYOND
        assert sum(x > value for x in xs) == beyond


def test_percentile_matches_numpy():
    xs = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    for p in (0, 25, 50, 90, 99.9, 100):
        assert benchstats.percentile(xs, p) == pytest.approx(np.percentile(xs, p))


# ---------------------------------------------------------------------------
# spans and self time
# ---------------------------------------------------------------------------


def test_self_time_on_synthetic_tree():
    tree = [
        spans.Span("root", 0.0, 10.0, None, 0),
        spans.Span("child", 1.0, 3.0, 0, 0),
        spans.Span("leaf", 1.5, 2.0, 1, 0),
        spans.Span("child", 2.0, 5.0, 0, 0),    # overlaps the first child
        spans.Span("child", 8.0, 12.0, 0, 0),   # runs past the parent's end
    ]
    st = spans.self_times(tree)
    # root covered by [1, 5] and [8, 10]
    assert st["root"] == pytest.approx(10.0 - 4.0 - 2.0)
    assert st["leaf"] == pytest.approx(0.5)
    assert st["child"] == pytest.approx((2.0 - 0.5) + 3.0 + 4.0)
    assert spans.call_counts(tree) == {"root": 1, "child": 3, "leaf": 1}


def test_tracer_links_parents_and_restores():
    inner_mod = SimpleNamespace(work=lambda x: x + 1)
    outer_mod = SimpleNamespace()
    outer_mod.run = lambda x: inner_mod.work(x) * 2
    original = inner_mod.work

    tracer = spans.Tracer()
    tracer.wrap(inner_mod, "work", "inner.work",
                lambda tr, result: tr.count("inner.results", result))
    tracer.wrap(outer_mod, "run", "outer.run")
    tracer.request = 7
    assert outer_mod.run(1) == 4
    tracer.restore()

    assert inner_mod.work is original
    outer = next(s for s in tracer.spans if s.name == "outer.run")
    inner = next(s for s in tracer.spans if s.name == "inner.work")
    assert inner.parent == tracer.spans.index(outer) and outer.parent is None
    assert inner.request == outer.request == 7
    assert outer.start <= inner.start <= inner.end <= outer.end
    assert tracer.counters["inner.results"] == 2


def test_layer_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sample = run.Samples(latency=[1.0], output_bytes=[0])
    metrics = run.layer_metrics(spans.Tracer(), sample, sample)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        [(name, unit) for name, (_, unit) in metrics.items()]


# ---------------------------------------------------------------------------
# correctness checks reject perturbed reports
# ---------------------------------------------------------------------------


def _dynamic_report(eta):
    p_op = 0.36
    return {
        "results": {
            "clone_fidelity_1": checks.REF_CLONE_FIDELITY,
            "clone_fidelity_2": checks.REF_CLONE_FIDELITY,
            "telenot_fidelity": checks.REF_TELENOT_FIDELITY,
            "p_symmetric": 0.75,
            "p_operational": p_op,
            "p_detected": p_op * eta * eta,
        },
        "dynamics": {"alice": {"closure_error": 4e-14}, "bob": {"closure_error": 3e-14}},
    }


@pytest.mark.parametrize("path, value, failure", [
    (("results", "clone_fidelity_2"), checks.REF_CLONE_FIDELITY + 1e-15, "clone_symmetry"),
    (("results", "telenot_fidelity"), checks.REF_TELENOT_FIDELITY - 1e-5, "telenot_fidelity_ref"),
    (("results", "p_symmetric"), 0.7, "p_symmetric"),
    (("results", "p_detected"), 0.1, "eta_law"),
    (("dynamics", "bob", "closure_error"), 2e-8, "closure"),
])
def test_dynamic_check_rejects_perturbed_report(path, value, failure):
    eta = 0.8
    outputs = set(checks.DYNAMIC_OUTPUTS)
    report = _dynamic_report(eta)
    assert checks.check_dynamic(0, report, eta, outputs) == []
    node = report
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    assert checks.check_dynamic(0, report, eta, outputs) == [failure]
    assert checks.check_dynamic(1, _dynamic_report(eta), eta, outputs) == ["exit_code_1"]
    assert checks.check_dynamic(0, _dynamic_report(eta), eta, outputs - {"pulse_bob.csv"}) \
        == ["outputs_written"]


def _sweep_csv(etas, p_op=0.3608):
    lines = ["param,value,clone_fidelity_1,clone_fidelity_2,telenot_fidelity,"
             "p_operational,p_detected"]
    f, t = format(checks.REF_CLONE_FIDELITY, ".12g"), format(checks.REF_TELENOT_FIDELITY, ".12g")
    for eta in etas:
        lines.append(f"eta,{eta:.12g},{f},{f},{t},{p_op:.12g},{p_op * eta * eta:.12g}")
    return "\n".join(lines) + "\n"


def test_sweep_check_rejects_perturbed_csv():
    etas = [float(e) for e in np.linspace(0.4, 0.9, 4)]
    good = _sweep_csv(etas)
    assert checks.check_sweep(0, good, etas) == []
    rows = good.splitlines()
    assert checks.check_sweep(0, "\n".join(rows[:-1]) + "\n", etas) == ["row_count"]
    rows[2] = rows[2].replace(format(checks.REF_TELENOT_FIDELITY, ".12g"), "0.666607336783")
    assert checks.check_sweep(0, "\n".join(rows) + "\n", etas) == ["fidelity_identical"]
    assert checks.check_sweep(0, good, [e * 1.001 for e in etas]) == ["eta_law"]


@pytest.fixture(scope="module")
def program():
    return run.load_program()


def test_analytic_check_rejects_perturbed_report(program):
    rng = np.random.default_rng(3)
    seen_dark = seen_mc = False
    for _ in range(30):
        item = wl.make_analytic(rng)
        result = wl.analytic_request(program, item)
        assert wl.check_analytic_result(item, result) == []
        seen_dark |= item.dark_rate > 0
        seen_mc |= result[0].mc_trials > 0
    assert seen_dark and seen_mc

    report, f_clone, f_unot = result
    bad = replace(report, clone_fidelity_1=report.clone_fidelity_1 + 1e-6)
    assert checks.check_analytic(bad, item.dark_rate, f_clone, f_unot) == \
        ["clone_fidelity_5_6", "oracle_agreement"]
    assert checks.check_analytic(report, item.dark_rate, f_clone, f_unot - 1e-6) \
        == ["oracle_agreement"]
    bad = replace(report, mc_trials=1000, mc_p_detected=report.p_detected + 0.5, mc_sigma=0.01)
    assert checks.check_analytic(bad, item.dark_rate, f_clone, f_unot) == ["monte_carlo_5sigma"]


def test_generation_depends_only_on_seed(tmp_path):
    for d in ("a", "b"):
        (tmp_path / d).mkdir()
    a = wl.make_dynamic(run.workload_rng("dynamic", 5), tmp_path / "a", 0)
    b = wl.make_dynamic(run.workload_rng("dynamic", 5), tmp_path / "b", 0)
    c = wl.make_dynamic(run.workload_rng("dynamic", 6), tmp_path / "b", 1)
    read = lambda req: Path(req.argv[2]).read_text()  # noqa: E731
    assert read(a) == read(b) != read(c)
    assert wl.make_analytic(np.random.default_rng(9)).values == \
        wl.make_analytic(np.random.default_rng(9)).values


def test_spawn_reports_the_childs_own_exit_and_resources(tmp_path):
    res = wl.spawn(["-c", "raise SystemExit(3)"], dict(os.environ), tmp_path / "ok")
    assert res.exit_code == 3 and res.cpu_s > 0 and res.maxrss_mb > 1
    res = wl.spawn(["-c", "import time; time.sleep(30)"], dict(os.environ),
                   tmp_path / "slow", timeout=0.5)
    assert res.exit_code == -9 and res.wall_s < 10


def test_child_env_scrubs_seed_override(monkeypatch):
    monkeypatch.setenv("CLONESIM_SEED", "42")
    env = wl.child_env(ROOT)
    assert "CLONESIM_SEED" not in env
    assert env["PYTHONPATH"].split(":")[0] == str(ROOT / "src")


# ---------------------------------------------------------------------------
# calibration scaling
# ---------------------------------------------------------------------------


def test_calibration_scales_each_block_by_its_kernel_time():
    ref = calibration.REF_KERNEL_S
    blocks = [calibration.Block(0, 2, 0.10, ref),          # machine at reference speed
              calibration.Block(2, 3, 0.30, 2.0 * ref)]    # machine twice as slow
    assert calibration.scale(blocks, [1.0, 2.0, 4.0]) == [1.0, 2.0, 2.0]
    assert calibration.scaled_wall(blocks) == pytest.approx(0.10 + 0.15)
    assert calibration.kernel_seconds() > 0


# ---------------------------------------------------------------------------
# run-set comparison
# ---------------------------------------------------------------------------

SPEC = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "throughput_rps", "unit": "1/s", "better": "higher", "bound": 0.1},
]


def _set(setup, thr):
    return {"w": {"setup_s": setup, "throughput_rps": thr}}


def test_run_sets_agree_when_equal():
    vals = _set([1.0, 1.1, 0.9, 1.0, 1.05], [10.0, 10.1, 9.9, 10.0, 10.2])
    assert benchstats.compare_run_sets(vals, vals, SPEC) == []


def test_run_set_comparison_flags_spread_and_regression():
    first = _set([1.0, 1.0, 1.0, 1.0, 1.0], [10.0, 10.1, 9.9, 10.0, 10.2])
    wide = _set([0.5, 1.0, 1.5, 2.0, 0.7], [5.0, 10.0, 15.0, 12.0, 9.0])
    problems = benchstats.compare_run_sets(first, wide, SPEC)
    # setup_s spread is exempt, its median rose 0 %; throughput spread too wide
    assert problems == ["w/throughput_rps: second spread 0.6500 > bound 0.1"]

    slower = _set([1.4, 1.4, 1.4, 1.4, 1.4], [8.0, 8.1, 7.9, 8.0, 8.0])
    problems = benchstats.compare_run_sets(first, slower, SPEC)
    assert problems == ["w/setup_s: second median worse by 0.4000 > bound 0.25",
                        "w/throughput_rps: second median worse by 0.2000 > bound 0.1"]
    # getting better is never a problem
    assert benchstats.compare_run_sets(slower, first, SPEC) == []
