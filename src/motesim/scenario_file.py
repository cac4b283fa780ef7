"""Scenario files: the YAML loader and the mapping-to-``Scenario`` parser.

A scenario file is YAML with five sections (sim, radio, channel, nodes,
app). Unknown keys and sections that are not mappings are rejected. The
radio and channel sections and a node's wurx and position blocks take
their keys, types and defaults from the named tuple they build;
``NodeSpec`` and ``WurxSpec`` live in ``node``. The records check their
own values when built; the parser adds where in the file an error lies.

Only file-driven runs need this module, so ``import motesim`` does not
compile it: ``scenario.load`` and ``scenario.from_dict`` import it on
their first call.
"""

import math
from typing import get_type_hints

from .channel import ChannelParams, Position
from .errors import ConfigError, ScenarioError
from .node import POWER_KEYS, NodeSpec, WurxSpec
from .phy import RadioConfig
from .scenario import _APP_KEYS, APP_KINDS, AppSpec, Scenario, _s_to_ns


def _require_keys(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ScenarioError(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get(section: dict, key: str, kind, where: str, default=None,
         required: bool = False):
    if key not in section:
        if required:
            raise ScenarioError(f"missing required key {where}.{key}")
        return default
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ScenarioError(
            f"{where}.{key} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    if kind is float and not math.isfinite(value):  # NaN passes every gate
        raise ScenarioError(f"{where}.{key} must be finite, got {value}")
    return value


def _parse_fields(cls, raw, where: str, label: str | None = None):
    """Build the named tuple ``cls`` from the mapping ``raw``.

    The fields of ``cls`` are the only allowed keys, and their type hints
    give the types (``get_type_hints`` resolves them however the Python
    version stores the annotations). An omitted key takes the field's
    default; a field without a default is required. The record's own
    check fails as a ``ScenarioError`` that names ``label``, or ``where``.
    """
    _require_keys(raw, set(cls._fields), where)
    kinds, defaults = get_type_hints(cls), cls._field_defaults
    values = {name: _get(raw, name, kinds[name], where,
                         default=defaults.get(name),
                         required=name not in defaults)
              for name in cls._fields}
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ScenarioError(f"{label or where}: {exc}") from exc


# each duration key, as (its field in ns, seconds per unit of the key)
_DURATIONS = {
    "mcu_wakeup_latency_us": ("mcu_wakeup_ns", 1e-6),
    "radio_turn_on_ms": ("radio_turn_on_ns", 1e-3),
    "period_s": ("period_ns", 1.0),
    "cycle_period_s": ("cycle_period_ns", 1.0),
    "linger_ms": ("linger_ns", 1e-3),
    "rx_timeout_ms": ("rx_timeout_ns", 1e-3),
}


def _parse_present(raw: dict, keys, kind, where: str) -> dict:
    """The fields for those of ``keys`` present in ``raw``, so that an
    omitted key takes the field's default. A duration key sets its ns
    field; any other key is a ``kind`` value for the field of its name."""
    values = {}
    for key in keys:
        if key not in raw:
            continue
        if key in _DURATIONS:
            name, unit_s = _DURATIONS[key]
            values[name] = _s_to_ns(_get(raw, key, float, where) * unit_s,
                                    f"{where}.{key}")
        else:
            values[key] = _get(raw, key, kind, where)
    return values


# a WuRX node's decode power has one key: its wurx block's decode_power_w
_POWER_KEYS = {f"{label}_w": label for label in POWER_KEYS}
_NODE_KEYS = ("battery_j", "harvest_rate_w", "harvest_efficiency",
              "mcu_wakeup_latency_us", "radio_turn_on_ms")


def _parse_node(raw, index: int) -> NodeSpec:
    where = f"nodes[{index}]"
    _require_keys(raw, {"address", "role", "position", "power", "wurx",
                        *_NODE_KEYS}, where)
    role = _get(raw, "role", str, where, required=True)
    address = _get(raw, "address", int, where, required=True)
    power = {}
    if "power" in raw:
        _require_keys(raw["power"], set(_POWER_KEYS), f"{where}.power")
        for key, label in _POWER_KEYS.items():
            if key in raw["power"]:
                power[label] = _get(raw["power"], key, float, f"{where}.power")
    node = f"node {address}"  # names the wurx block's and the node's errors
    wurx = _parse_fields(WurxSpec, raw["wurx"], f"{where}.wurx", node) \
        if "wurx" in raw else None
    position = _parse_fields(Position, raw["position"], f"{where}.position") \
        if "position" in raw else Position()
    fields = _parse_present(raw, _NODE_KEYS, float, where)
    try:
        return NodeSpec(address=address, role=role, position=position,
                        power_w=power, wurx=wurx, **fields)
    except ConfigError as exc:
        raise ScenarioError(f"{node}: {exc}") from exc


def _parse_app(raw) -> AppSpec:
    where = "app"
    if not isinstance(raw, dict):
        raise ScenarioError(f"{where} must be a mapping")
    kind = _get(raw, "kind", str, where, required=True)
    if kind not in APP_KINDS:
        raise ScenarioError(f"app.kind must be one of {APP_KINDS}, got {kind!r}")
    _require_keys(raw, {"kind", *_APP_KEYS[kind]}, f"app of kind {kind!r}")
    return AppSpec(kind=kind, **_parse_present(raw, _APP_KEYS[kind], int,
                                               where))


def from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a mapping")
    _require_keys(raw, {"sim", "radio", "channel", "nodes", "app"}, "scenario")
    for section in ("sim", "nodes", "app"):
        if section not in raw:
            raise ScenarioError(f"missing required section '{section}'")
    sim = raw["sim"]
    _require_keys(sim, {"horizon_s", "seed"}, "sim")
    if not isinstance(raw["nodes"], list):
        raise ScenarioError("nodes must be a list")
    # only an omitted or null radio or channel section takes the defaults
    radio, channel = ({} if raw.get(key) is None else raw[key]
                      for key in ("radio", "channel"))
    return Scenario(
        horizon_ns=_s_to_ns(_get(sim, "horizon_s", float, "sim",
                                 required=True), "sim.horizon_s"),
        seed=_get(sim, "seed", int, "sim", 0),
        radio=_parse_fields(RadioConfig, radio, "radio"),
        channel=_parse_fields(ChannelParams, channel, "channel"),
        nodes=tuple(_parse_node(n, i) for i, n in enumerate(raw["nodes"])),
        app=_parse_app(raw["app"]),
    )


def load(path) -> Scenario:
    # imported here: ``from_dict`` alone does not need PyYAML
    import yaml
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario file is not valid YAML: {exc}") from exc
    return from_dict(raw)
