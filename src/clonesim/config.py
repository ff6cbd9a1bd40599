"""Flat dotted-key run configuration.

The format is deliberately plain: one ``key = value`` pair per line, ``#``
comments, no sections.  Example::

    seed = 7
    input.a = 0.6
    input.b = 0.8
    alice.gamma = 0.05
    detector.eta = 0.9

Unknown keys are an error (named in the message), as are missing required
keys and unparseable values.  ``input.a`` and ``input.b`` accept complex
literals ("0.8j", "0.6+0.0j").
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .adiabatic import PULSE_SHAPES, Side
from .cloner import InputQubit
from .protocol import (
    DetectorParams,
    Mode,
    NodeConfig,
    ProtocolConfig,
    default_node,
)

__all__ = [
    "ConfigError",
    "RunSettings",
    "KEY_TABLE",
    "REQUIRED_KEYS",
    "values_from_text",
    "parse_config_text",
    "load_config",
    "settings_from_values",
]


class ConfigError(ValueError):
    """Malformed, unknown, or missing configuration input."""


def _parse_int(s: str) -> int:
    return int(s, 0)


def _parse_float(s: str) -> float:
    v = float(s)
    if not math.isfinite(v):
        raise ValueError("value must be finite")
    return v


def _parse_complex(s: str) -> complex:
    v = complex(s.replace(" ", ""))
    if not (math.isfinite(v.real) and math.isfinite(v.imag)):
        raise ValueError("value must be finite")
    return v


def _parse_shape(s: str) -> str:
    if s not in PULSE_SHAPES:
        raise ValueError(f"expected one of {PULSE_SHAPES}")
    return s


def _node_keys(side: Side) -> dict:
    """``<side>.<field>`` for every NodeConfig field, defaulting to default_node."""
    return {f"{side.value}.{name}": (_parse_shape if name == "shape" else _parse_float, value)
            for name, value in default_node(side).values().items()}


# key -> (parser, default); None default marks a required key.
KEY_TABLE: dict = {
    "seed": (_parse_int, None),
    "input.a": (_parse_complex, None),
    "input.b": (_parse_complex, None),
    "dt": (_parse_float, 0.05),
    "emission_floor": (_parse_float, 0.5),
    **_node_keys(Side.ALICE),
    **_node_keys(Side.BOB),
    "detector.eta": (_parse_float, 1.0),
    "detector.dark_rate": (_parse_float, 0.0),
    "detector.window": (_parse_float, 10.0),
    "detector.mc_trials": (_parse_int, 0),
    "adiabaticity.max_excited": (_parse_float, 0.1),
}

REQUIRED_KEYS = tuple(k for k, (_, d) in KEY_TABLE.items() if d is None)
# per side, (config key, NodeConfig field) for every node key
_NODE_FIELDS = {side: tuple((key, key[len(side.value) + 1:]) for key in KEY_TABLE
                            if key.startswith(side.value + "."))
                for side in Side}
# every key's default, in sorted order: the order ``resolved`` lists them
_DEFAULTS = {key: KEY_TABLE[key][1] for key in sorted(KEY_TABLE)}
# a key's position in KEY_TABLE, the order the parse reports bad values in
_POSITION = {key: k for k, key in enumerate(KEY_TABLE)}
# per side, the node every default value gives, built and validated once, and
# the keys whose presence asks for another
_DEFAULT_NODES = {side: NodeConfig.from_values(side, {name: _DEFAULTS[key]
                                                      for key, name in _NODE_FIELDS[side]})
                  for side in Side}
_NODE_KEYS = {side: frozenset(key for key, _ in _NODE_FIELDS[side]) for side in Side}
# keys whose parsed value is complex; a manifest lists it as [re, im]
_COMPLEX_KEYS = tuple(key for key, (parser, _) in KEY_TABLE.items() if parser is _parse_complex)


@dataclass(frozen=True)
class RunSettings:
    """Parsed configuration: the protocol config plus CLI-level knobs."""

    config: ProtocolConfig
    max_excited: float
    resolved: dict   # every key -> parsed value (JSON-friendly), for manifests
    input_norm_sq: float = 1.0   # |a|^2+|b|^2 of the raw values, before renormalizing


def settings_from_values(values: dict, mode: Mode | str = Mode.ANALYTIC) -> RunSettings:
    """Build settings from raw string values keyed by dotted names.

    Unknown keys raise; absent optional keys take their defaults; required
    keys (seed, input.a, input.b) must be present.
    """
    unknown = sorted(key for key in values if key not in _POSITION)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")

    parsed = dict(_DEFAULTS)
    # only the given keys, in KEY_TABLE order so the first bad one is named
    for key in sorted(values, key=_POSITION.__getitem__):
        raw = values[key]
        try:
            parsed[key] = KEY_TABLE[key][0](raw if isinstance(raw, str) else str(raw))
        except ValueError as exc:
            raise ConfigError(f"bad value for {key!r}: {raw!r} ({exc})") from None

    missing = sorted(k for k in REQUIRED_KEYS if parsed[k] is None)
    if missing:
        raise ConfigError(f"missing required config key(s): {', '.join(missing)}")

    def node(side: Side) -> NodeConfig:
        if _NODE_KEYS[side].isdisjoint(values):
            return _DEFAULT_NODES[side]
        return NodeConfig.from_values(side, {name: parsed[key]
                                             for key, name in _NODE_FIELDS[side]})

    try:
        cfg = ProtocolConfig(
            input=InputQubit.normalized(parsed["input.a"], parsed["input.b"]),
            alice=node(Side.ALICE),
            bob=node(Side.BOB),
            mode=Mode(mode),
            detector=DetectorParams(
                eta=parsed["detector.eta"],
                dark_rate=parsed["detector.dark_rate"],
                window=parsed["detector.window"],
            ),
            seed=parsed["seed"],
            dt=parsed["dt"],
            emission_floor=parsed["emission_floor"],
            mc_trials=parsed["detector.mc_trials"],
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    raw_norm_sq = abs(parsed["input.a"]) ** 2 + abs(parsed["input.b"]) ** 2
    # parsed lists every key in sorted order (as _DEFAULTS does); it becomes
    # the manifest's record once the complex values are [re, im] pairs
    for key in _COMPLEX_KEYS:
        parsed[key] = [parsed[key].real, parsed[key].imag]
    return RunSettings(
        config=cfg,
        max_excited=parsed["adiabaticity.max_excited"],
        resolved=parsed,
        input_norm_sq=raw_norm_sq,
    )


def values_from_text(text: str) -> dict:
    """Raw key -> string-value pairs from config text; syntax checks only."""
    values: dict = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw_line!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value in {raw_line!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def parse_config_text(text: str, mode: Mode | str = Mode.DYNAMIC) -> RunSettings:
    return settings_from_values(values_from_text(text), mode)


def load_config(path: str, mode: Mode | str = Mode.DYNAMIC) -> RunSettings:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config_text(text, mode)

