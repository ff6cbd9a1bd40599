"""Key=value config parsing: defaults, diagnostics, round trips."""

import math

import pytest

from clonesim.config import (
    ConfigError,
    example_config_text,
    load_config,
    parse_config_text,
    settings_from_values,
    values_from_text,
)
from clonesim.protocol import Mode

MINIMAL = "seed = 4\ninput.a = 0.6\ninput.b = 0.8\n"


def test_example_text_round_trips():
    settings = parse_config_text(example_config_text(), Mode.DYNAMIC)
    cfg = settings.config
    assert cfg.alice.params.g == 1.0
    assert cfg.bob.omega.omega_max == pytest.approx(20.0 * math.sqrt(2))
    assert cfg.detector.window == 10.0
    assert settings.max_excited == 0.1


def test_minimal_config_fills_defaults():
    settings = parse_config_text(MINIMAL, Mode.ANALYTIC)
    cfg = settings.config
    assert cfg.seed == 4
    assert cfg.input.a == pytest.approx(0.6)
    assert cfg.mode is Mode.ANALYTIC
    assert cfg.dt == 0.05
    assert settings.input_norm_sq == pytest.approx(1.0)


def test_complex_amplitudes_parse():
    settings = parse_config_text("seed=0\ninput.a = 0.6\ninput.b = 0.0+0.8j\n",
                                 Mode.ANALYTIC)
    assert settings.config.input.b == pytest.approx(0.8j)


def test_renormalization_is_recorded():
    settings = parse_config_text("seed=0\ninput.a = 0.6\ninput.b = 0.9\n",
                                 Mode.ANALYTIC)
    assert settings.input_norm_sq == pytest.approx(0.36 + 0.81)
    n = abs(settings.config.input.a) ** 2 + abs(settings.config.input.b) ** 2
    assert n == pytest.approx(1.0, abs=1e-12)


def test_unknown_key_is_named():
    with pytest.raises(ConfigError, match="bogus.key"):
        parse_config_text(MINIMAL + "bogus.key = 1\n", Mode.ANALYTIC)


def test_bad_value_names_key_and_value():
    with pytest.raises(ConfigError, match=r"detector\.eta.*nope"):
        parse_config_text(MINIMAL + "detector.eta = nope\n", Mode.ANALYTIC)


def test_missing_required_keys_are_named():
    with pytest.raises(ConfigError, match="input.a"):
        parse_config_text("seed = 1\ninput.b = 1.0\n", Mode.ANALYTIC)


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        values_from_text("seed = 1\nseed = 2\n")


def test_syntax_error_reports_line_number():
    with pytest.raises(ConfigError, match="line 2"):
        values_from_text("seed = 1\nnot a pair\n")


def test_comments_and_blanks_ignored():
    text = "# heading\n\nseed = 2   \n  input.a = 1.0\ninput.b = 0.0  # trailing\n"
    values = values_from_text(text)
    assert values["seed"] == "2"
    assert values["input.b"] == "0.0"


def test_zero_input_rejected():
    with pytest.raises(ConfigError, match="normalize"):
        parse_config_text("seed=0\ninput.a = 0\ninput.b = 0\n", Mode.ANALYTIC)


def test_huge_input_amplitude_is_config_error():
    with pytest.raises(ConfigError, match="too large"):
        parse_config_text("seed=0\ninput.a = 1e308\ninput.b = 0\n", Mode.ANALYTIC)


def test_out_of_range_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text(MINIMAL + "detector.eta = 1.5\n", Mode.ANALYTIC)


def test_node_overrides_apply():
    text = MINIMAL + "alice.t_total = 120\nbob.shape = tanh\ndetector.mc_trials = 500\n"
    cfg = parse_config_text(text, Mode.DYNAMIC).config
    assert cfg.alice.omega.t_total == 120.0
    assert cfg.bob.omega.shape == "tanh"
    assert cfg.mc_trials == 500
    assert cfg.alice.omega.shape == "sin2"   # untouched default


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg", Mode.ANALYTIC)


def test_load_config_reads_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(MINIMAL)
    assert load_config(path, Mode.ANALYTIC).config.seed == 4


def test_settings_resolved_mapping_is_json_friendly():
    import json
    settings = parse_config_text(MINIMAL, Mode.ANALYTIC)
    text = json.dumps(settings.resolved)
    assert "alice.omega_max" in text


def test_values_api_rejects_non_string_layers():
    with pytest.raises(ConfigError):
        settings_from_values({"seed": "1", "input.a": "x", "input.b": "0"},
                             Mode.ANALYTIC)
