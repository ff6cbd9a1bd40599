"""Command-line front end: exit codes, artifacts, seed plumbing."""

import json

import pytest

from clonesim import acceptance, cli

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


def test_dynamics_fast_config(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG)
    out = tmp_path / "out"
    with pytest.warns(RuntimeWarning):        # brisk ramp trips the monitor
        code = cli.main(["dynamics", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    names = {p.name for p in out.iterdir()}
    assert names == {"report.json", "summary.csv", "pulse_alice.csv",
                     "pulse_bob.csv", "manifest.json"}
    report = json.loads((out / "report.json").read_text())
    assert report["config"]["mode"] == "dynamic"
    assert float(report["results"]["overlap_visibility"]) > 0.9


def test_dynamics_adiabaticity_threshold_fails_run(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(FAST_CFG + "adiabaticity.max_excited = 0.01\n")
    with pytest.warns(RuntimeWarning):
        code = cli.main(["dynamics", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == cli.EXIT_DIAGNOSTIC
    assert "adiabaticity" in capsys.readouterr().err


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
