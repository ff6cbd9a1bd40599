"""Command-line front end: exit codes, artifacts, seed plumbing."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import clonesim
from clonesim import acceptance, cli, protocol
from clonesim.protocol import ZERO_HERALD_NOTE

FAST_CFG = """\
seed = 9
input.a = 0.6
input.b = 0.8
dt = 0.025
alice.omega_max = 2.0
alice.t_total = 25.0
bob.omega_max = 2.8284271247461903
bob.t_total = 25.0
"""


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("CLONESIM_SEED", raising=False)


def test_ideal_writes_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    assert cli.main(["ideal", "--a", "0.6", "--b", "0.8", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "clone_fidelity_1 = 0.833333333333" in stdout
    assert {p.name for p in out.iterdir()} == {"report.json", "summary.csv", "manifest.json"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "ideal"
    assert manifest["seed"] == 0


def test_ideal_runs_are_byte_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    cli.main(["ideal", "--a", "0.6", "--b", "0.8", "--out", str(a)])
    cli.main(["ideal", "--a", "0.6", "--b", "0.8", "--out", str(b)])
    assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()
    assert (a / "summary.csv").read_bytes() == (b / "summary.csv").read_bytes()


GOLDEN = Path(__file__).resolve().parent / "data"


def test_ideal_output_matches_the_golden_files(tmp_path):
    # ideal reports are pinned byte for byte; a change that moves a digit
    # regenerates these files and lists the moved digits in CHANGES.md
    assert cli.main(["ideal", "--a", "0.6", "--b", "0.8", "--out", str(tmp_path)]) == 0
    for name in ("report.json", "summary.csv"):
        golden = GOLDEN / f"ideal_a0.6_b0.8.{name}"
        assert (tmp_path / name).read_bytes() == golden.read_bytes(), name


def test_ideal_renormalizes_with_warning(tmp_path, capsys):
    assert cli.main(["ideal", "--a", "0.7", "--b", "0.8",
                     "--out", str(tmp_path)]) == 0
    assert "renormalized" in capsys.readouterr().err


def test_ideal_rejects_zero_input(tmp_path, capsys):
    code = cli.main(["ideal", "--a", "0", "--b", "0", "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def test_env_seed_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("CLONESIM_SEED", "77")
    cli.main(["ideal", "--a", "1", "--b", "0", "--seed", "5", "--out", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["seed"] == 77


def test_bad_env_seed_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("CLONESIM_SEED", "many")
    assert cli.main(["ideal", "--a", "1", "--b", "0",
                     "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "CLONESIM_SEED" in capsys.readouterr().err


def _never(*args, **kwargs):
    raise AssertionError("a config error must stop the command before it runs")


NEGATIVE_SEED_CFG = "seed = -3\ninput.a = 0.6\ninput.b = 0.8\ndetector.mc_trials = 100\n"


@pytest.mark.parametrize("command", [
    ["dynamics"],
    ["sweep", "--param", "eta", "--from", "0.5", "--to", "1", "--steps", "2"],
])
def test_negative_config_seed_is_config_error(tmp_path, monkeypatch, capsys, command):
    # the seed used to fail only where the Monte Carlo draws (exit 1)
    monkeypatch.setattr(cli, "run", _never)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(NEGATIVE_SEED_CFG)
    code = cli.main(command + ["--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_CONFIG
    assert "seed must be non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv,env_seed", [(["--seed=-2"], None), ([], "-1")])
def test_negative_verify_seed_is_config_error(tmp_path, monkeypatch, capsys, argv, env_seed):
    # the seed used to reach numpy's generator and crash with a traceback
    monkeypatch.setattr(acceptance, "run_all", _never)
    if env_seed is not None:
        monkeypatch.setenv("CLONESIM_SEED", env_seed)
    assert cli.main(["verify", *argv, "--out", str(tmp_path)]) == cli.EXIT_CONFIG
    assert "seed must be non-negative" in capsys.readouterr().err


def _excited_notes(err: str) -> list:
    """The nodes named by the stderr lines noting a peak excited population."""
    return [line.split()[1] for line in err.splitlines()
            if line.startswith("diagnostic: ") and "excited population peaked" in line]


def test_dynamics_fast_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    out = tmp_path / "out"
    code = cli.main(["dynamics", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    err = capsys.readouterr().err
    assert _excited_notes(err) == ["alice", "bob"]    # brisk ramps trip the monitor once each
    names = {p.name for p in out.iterdir()}
    assert names == {"report.json", "summary.csv", "pulse_alice.csv",
                     "pulse_bob.csv", "manifest.json"}
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["mode"] == "dynamic"
    assert float(report["results"]["overlap_visibility"]) > 0.9
    # stderr states each condition once, in the report's words
    assert err.splitlines() == [f"diagnostic: {note}" for note in report["diagnostics"]]


def test_dynamics_adiabaticity_threshold_fails_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG + "adiabaticity.max_excited = 0.01\n")
    code = cli.main(["dynamics", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DIAGNOSTIC
    err = capsys.readouterr().err
    assert "adiabaticity violation" in err
    assert _excited_notes(err) == ["alice", "bob"]


ZERO_HERALD_CFG = """\
seed = 1
input.a = 0.6
input.b = 0.8
alice.kappa = 0
alice.t_total = 40
bob.t_total = 40
dt = 0.01
"""


def test_dynamics_zero_herald_reports_undefined_fidelities(tmp_path, monkeypatch, capsys):
    # alice has no cavity decay, emits nothing, and nothing heralds: no photon
    # pair exists, so nothing conditioned on one is reported as a number
    reports = []

    def run_and_keep(config):
        reports.append(protocol.run(config))
        return reports[-1]

    monkeypatch.setattr(cli, "run", run_and_keep)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ZERO_HERALD_CFG)
    out = tmp_path / "out"
    cli.main(["dynamics", "--config", str(cfg), "--out", str(out)])
    captured = capsys.readouterr()
    rep_a, rep_b = reports[0].dynamics_diags
    assert rep_a.polarization is None and math.isnan(rep_a.purity)
    assert rep_b.polarization is not None
    undefined = ("clone_fidelity_1", "clone_fidelity_2", "telenot_fidelity", "p_symmetric")

    report = json.loads((out / "report.json").read_text())
    assert report["results"]["p_operational"] == 0.0
    assert ZERO_HERALD_NOTE in report["diagnostics"]
    assert not any("rank-one" in note for note in report["diagnostics"])
    for name, value in report["results"].items():
        if name in undefined:
            assert value is None
        else:
            assert math.isfinite(value)
    assert report["post_state"] is None and report["rho_post"] is None
    assert report["count_distribution"] == {}

    header, row = (out / "summary.csv").read_text().splitlines()
    summary = dict(zip(header.split(","), row.split(",")))
    assert [summary[name] for name in undefined] == ["nan"] * 4
    for name in undefined:
        assert f"{name} = nan" in captured.out
    assert f"diagnostic: {ZERO_HERALD_NOTE}" in captured.err
    assert "diagnostic: alice emission 0 below floor 0.5: protocol degenerate" in captured.err
    assert _excited_notes(captured.err) == ["alice", "bob"]
    assert "rank" not in captured.err

    # dark counts still herald (falsely) on such a run; the state stays undefined
    cfg.write_text(ZERO_HERALD_CFG + "detector.dark_rate = 0.001\ndetector.mc_trials = 100\n")
    dark = tmp_path / "dark"
    cli.main(["dynamics", "--config", str(cfg), "--out", str(dark)])
    assert f"diagnostic: {ZERO_HERALD_NOTE}" in capsys.readouterr().err
    report = json.loads((dark / "report.json").read_text())
    assert 0.0 < report["results"]["p_detected"] < 1.0
    assert report["results"]["false_herald_fraction"] == 1.0
    assert report["monte_carlo"]["trials"] == 100
    assert report["rho_post"] is None
    assert all(report["results"][name] is None for name in undefined)


_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _child_stdout(code: str, **env_vars) -> str:
    # an in-process `import clonesim.cli` may have set a thread count: start clean
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env.update(env_vars, PYTHONPATH=str(Path(clonesim.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True, timeout=120)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy is imported inside the two helpers that use it, never by the CLI
    code = ("import clonesim.cli, sys; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _child_stdout(code) == "[]"


def test_package_import_loads_no_numpy():
    assert _child_stdout("import clonesim, sys; print('numpy' in sys.modules)") == "False"


def test_package_exports_resolve_lazily():
    code = ("import clonesim; ns = {}; exec('from clonesim import *', ns); "
            "print(sorted(set(clonesim.__all__) - set(ns)), "
            "sorted(set(clonesim.__all__) - set(dir(clonesim))), "
            "clonesim.evolve.__module__, clonesim.protocol.__name__)")
    assert _child_stdout(code) == "[] [] clonesim.adiabatic clonesim.protocol"


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs /proc")
@pytest.mark.skipif((_CPUS or 1) < 2, reason="needs two CPUs")
@pytest.mark.parametrize("prelude,env_vars,expected", [
    ("", {}, "1 1"),                                     # the CLI's default
    ("", {"OPENBLAS_NUM_THREADS": "2"}, "2 2"),          # the user's count wins
    ("", {"OMP_NUM_THREADS": "2"}, "2 None"),
    ("import numpy; ", {}, "2 None"),                    # a library caller's numpy
], ids=["default", "openblas-set", "omp-set", "numpy-first"])
def test_cli_process_blas_threads(prelude, env_vars, expected):
    code = (prelude + "import os, clonesim.cli; "
            "threads = open('/proc/self/status').read().split('Threads:')[1].split()[0]; "
            "print(threads, os.environ.get('OPENBLAS_NUM_THREADS'))")
    assert _child_stdout(code, **env_vars) == expected


def test_dynamics_missing_config_file(tmp_path, capsys):
    code = cli.main(["dynamics", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG


def test_sweep_analytic_eta(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    out = tmp_path / "sw"
    code = cli.main(["sweep", "--param", "eta", "--from", "0", "--to", "1",
                     "--steps", "3", "--config", str(cfg),
                     "--mode", "analytic", "--out", str(out)])
    assert code == 0
    lines = (out / "sweep.csv").read_text().strip().split("\n")
    assert lines[0].startswith("param,value,mode,")
    assert len(lines) == 4
    first = lines[1].split(",")
    assert first[0] == "eta" and first[1] == "0"
    # p_detected scales with eta^2: 0, 0.09375, 0.375
    detected = [row.split(",")[12] for row in lines[1:]]
    assert detected == ["0", "0.09375", "0.375"]


def test_sweep_prints_each_points_diagnostics(tmp_path, capsys):
    # a zero-herald point prints nan; its notes on stderr say why
    cfg = tmp_path / "run.cfg"
    cfg.write_text(ZERO_HERALD_CFG)
    code = cli.main(["sweep", "--param", "eta", "--from", "0.5", "--to", "1", "--steps", "2",
                     "--config", str(cfg), "--out", str(tmp_path / "sw")])
    assert code == cli.EXIT_OK
    err = capsys.readouterr().err
    for value in ("0.5", "1"):
        assert f"diagnostic: eta = {value}: {ZERO_HERALD_NOTE}" in err


def test_sweep_reports_renormalized_input(tmp_path, capsys):
    # once: no sweepable key changes the input
    cfg = tmp_path / "run.cfg"
    cfg.write_text("seed = 1\ninput.a = 3\ninput.b = 4\n")
    code = cli.main(["sweep", "--param", "eta", "--from", "0.5", "--to", "1", "--steps", "2",
                     "--config", str(cfg), "--mode", "analytic", "--out", str(tmp_path / "sw")])
    assert code == cli.EXIT_OK
    err = capsys.readouterr().err
    assert err.count("renormalized") == 1
    assert "using a = 0.6, b = 0.8" in err


def test_sweep_dotted_key(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    out = tmp_path / "sw2"
    code = cli.main(["sweep", "--param", "detector.window", "--from", "5",
                     "--to", "15", "--steps", "2", "--config", str(cfg),
                     "--mode", "analytic", "--out", str(out)])
    assert code == 0


def test_sweep_rejects_unknown_param(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    code = cli.main(["sweep", "--param", "alice.shape", "--from", "0", "--to", "1",
                     "--steps", "2", "--config", str(cfg), "--out", str(tmp_path)])
    assert code == cli.EXIT_CONFIG
    assert "alice.shape" in capsys.readouterr().err


def test_sweep_step_budget_is_a_config_error(tmp_path, monkeypatch, capsys):
    # counted, never run: 10**9 steps would ask for ~8 GB of grid before any row
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    argv = ["sweep", "--param", "eta", "--from", "0.5", "--to", "1", "--config", str(cfg),
            "--mode", "analytic", "--out", str(tmp_path / "o"), "--steps"]
    assert cli.MAX_SWEEP_STEPS >= 10_000
    monkeypatch.setattr(cli, "run", _never)
    for steps in (cli.MAX_SWEEP_STEPS + 1, 10 ** 9):
        assert cli.main(argv + [str(steps)]) == cli.EXIT_CONFIG
        assert "sweep budget" in capsys.readouterr().err
    monkeypatch.setattr(cli, "run", protocol.run)
    monkeypatch.setattr(cli, "MAX_SWEEP_STEPS", 3)
    assert cli.main(argv + ["4"]) == cli.EXIT_CONFIG
    assert cli.main(argv + ["3"]) == cli.EXIT_OK


def _stub_suite(passed: bool) -> acceptance.SuiteResult:
    crit = acceptance.CriterionResult("stub-check", passed, 0.0, {"k": "1"})
    return acceptance.SuiteResult(seed=0, criteria=(crit,), passed=passed)


def test_verify_reports_pass(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(acceptance, "run_all", lambda seed: _stub_suite(True))
    code = cli.main(["verify", "--out", str(tmp_path)])
    assert code == 0
    stdout = capsys.readouterr().out
    assert "PASS" in stdout and "reproducibility" in stdout
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["passed"] is True
    assert [c["name"] for c in doc["criteria"]] == ["stub-check", "reproducibility"]


def test_verify_exit_code_on_failure(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(acceptance, "run_all", lambda seed: _stub_suite(False))
    code = cli.main(["verify", "--out", str(tmp_path)])
    assert code == cli.EXIT_VERIFY
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["passed"] is False


def test_verify_budget_overrun_fails_without_touching_physics(tmp_path, monkeypatch):
    def suite(duration):
        crit = acceptance.CriterionResult("slow-check", True, duration, {"k": "1"}, 1.0)
        return acceptance.SuiteResult(seed=0, criteria=(crit,), passed=True)

    # an overrun leaves the serialized physics content byte-identical
    assert acceptance.suite_bytes(suite(5.0)) == acceptance.suite_bytes(suite(0.5))
    monkeypatch.setattr(acceptance, "run_all", lambda seed: suite(5.0))
    assert cli.main(["verify", "--out", str(tmp_path)]) == cli.EXIT_VERIFY
    doc = json.loads((tmp_path / "verify_report.json").read_text())
    assert doc["passed"] is True and doc["within_budget"] is False
    assert doc["criteria"][0]["details"] == {"k": "1"}


def test_manifest_lists_outputs_and_version(tmp_path):
    cli.main(["ideal", "--a", "1", "--b", "0", "--out", str(tmp_path)])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["outputs"] == ["report.json", "summary.csv"]
    assert manifest["version"]
    assert "resolved_config" in manifest
