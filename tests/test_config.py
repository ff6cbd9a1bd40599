"""Key=value config parsing: defaults, diagnostics, round trips."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from clonesim.cloner import InputQubit
from clonesim.config import (
    KEY_TABLE,
    REQUIRED_KEYS,
    ConfigError,
    load_config,
    parse_config_text,
    settings_from_values,
    values_from_text,
)
from clonesim import config
from clonesim.adiabatic import PULSE_SHAPES, Side
from clonesim.protocol import DetectorParams, Mode, NodeConfig, ProtocolConfig, default_node

MINIMAL = "seed = 4\ninput.a = 0.6\ninput.b = 0.8\n"


def test_example_text_round_trips():
    # every optional key written at its default changes nothing
    text = MINIMAL + "".join(f"{key} = {default!r}\n" if isinstance(default, float)
                             else f"{key} = {default}\n"
                             for key, (_, default) in KEY_TABLE.items() if default is not None)
    full = parse_config_text(text, Mode.DYNAMIC)
    assert set(values_from_text(text)) == set(KEY_TABLE)
    assert full.resolved == parse_config_text(MINIMAL, Mode.DYNAMIC).resolved
    assert set(REQUIRED_KEYS) == set(values_from_text(MINIMAL))


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


def test_first_bad_key_in_table_order_is_named():
    # two bad values, given in the reverse of KEY_TABLE's order: the parse
    # names the one KEY_TABLE lists first, whatever order the values came in
    values = {"seed": "1", "input.a": "0.6", "input.b": "0.8",
              "detector.window": "wide", "alice.gamma": "lots"}
    table = list(KEY_TABLE)
    assert table.index("alice.gamma") < table.index("detector.window")
    with pytest.raises(ConfigError, match=r"^bad value for 'alice\.gamma': 'lots'"):
        settings_from_values(values, Mode.ANALYTIC)


def _valid_value(key: str):
    """A strategy for a value ``key`` accepts, as the parsed Python value."""
    default = KEY_TABLE[key][1]
    if key == "seed":
        return st.integers(0, 2**31)
    if key in ("input.a", "input.b"):
        return st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
    if key.endswith(".shape"):
        return st.sampled_from(PULSE_SHAPES)
    if key == "detector.mc_trials":
        return st.integers(0, 10**6)
    if key == "detector.dark_rate":
        return st.floats(0.0, 0.01)
    # every other key keeps its range when its default is scaled into (0, 1]
    return st.floats(0.25, 1.0).map(lambda f: default * f)


_OPTIONAL = [key for key in KEY_TABLE if key not in REQUIRED_KEYS]


@st.composite
def _valid_values(draw):
    """(raw string values, parsed values) for the required keys and a random
    subset of the optional ones, in random order."""
    keys = list(REQUIRED_KEYS) + draw(st.lists(st.sampled_from(_OPTIONAL), unique=True))
    parsed = {key: draw(_valid_value(key)) for key in draw(st.permutations(keys))}
    if abs(parsed["input.a"]) ** 2 + abs(parsed["input.b"]) ** 2 < 1e-6:
        parsed["input.a"] = 1.0 + 0j
    raw = {key: v if isinstance(v, str) else repr(v) for key, v in parsed.items()}
    return raw, parsed


@given(_valid_values())
def test_settings_are_the_defaults_plus_the_given_values(values):
    raw, given_values = values
    merged = {key: default for key, (_, default) in KEY_TABLE.items()}
    merged.update(given_values)

    def node(side):
        prefix = side.value + "."
        return NodeConfig.from_values(side, {key[len(prefix):]: value
                                             for key, value in merged.items()
                                             if key.startswith(prefix)})

    expected = ProtocolConfig(
        input=InputQubit.normalized(merged["input.a"], merged["input.b"]),
        alice=node(Side.ALICE),
        bob=node(Side.BOB),
        mode=Mode.ANALYTIC,
        detector=DetectorParams(eta=merged["detector.eta"],
                                dark_rate=merged["detector.dark_rate"],
                                window=merged["detector.window"]),
        seed=merged["seed"],
        dt=merged["dt"],
        emission_floor=merged["emission_floor"],
        mc_trials=merged["detector.mc_trials"],
    )
    settings = settings_from_values(raw, Mode.ANALYTIC)
    assert settings.config == expected
    assert settings.max_excited == merged["adiabaticity.max_excited"]
    assert list(settings.resolved) == sorted(KEY_TABLE)
    assert settings.resolved == {key: [value.real, value.imag] if isinstance(value, complex)
                                 else value for key, value in merged.items()}
    assert settings.input_norm_sq == abs(merged["input.a"]) ** 2 + abs(merged["input.b"]) ** 2


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


@pytest.mark.parametrize("side", list(Side))
def test_default_node_is_built_once_and_equals_its_defaults(side):
    # a parse that sets no key of a side reuses the node built at import,
    # which is the node the default values give and default_node(side)
    rebuilt = NodeConfig.from_values(side, {name: config._DEFAULTS[key]
                                            for key, name in config._NODE_FIELDS[side]})
    assert config._DEFAULT_NODES[side] == rebuilt == default_node(side)
    cfg = parse_config_text(MINIMAL, Mode.ANALYTIC).config
    assert getattr(cfg, side.value) is config._DEFAULT_NODES[side]
    other = Side.BOB if side is Side.ALICE else Side.ALICE
    cfg = parse_config_text(MINIMAL + f"{other.value}.gamma = 0.2\n", Mode.ANALYTIC).config
    assert getattr(cfg, side.value) is config._DEFAULT_NODES[side]
    assert getattr(cfg, other.value).params.gamma == 0.2


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
