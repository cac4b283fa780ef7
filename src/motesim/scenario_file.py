"""Scenario files: the YAML loader and the mapping-to-``Scenario`` parser.

A scenario file is YAML with five sections (sim, radio, channel, nodes,
app). Every section takes its keys, types and defaults from the named
tuple it builds: a key is its field's name and of its field's type, an
omitted key takes the field's default, and a block (a node's wurx or
position) builds the record its field's type names. ``_RENAMES`` holds
the keys that are not their field's name: the durations, each in its own
unit, and a node's power block. An app kind reads only the fields that
``scenario._APP_KEYS`` names. Unknown keys and sections that are not
mappings are rejected. The records check their own values when built;
the parser adds where in the file an error lies.

Only file-driven runs need this module, so ``import motesim`` does not
compile it: ``scenario.load`` and ``scenario.from_dict`` import it on
their first call.
"""

import math
from typing import NamedTuple, get_args, get_type_hints

from .channel import ChannelParams
from .errors import ConfigError, ScenarioError
from .node import POWER_KEYS, NodeSpec
from .phy import RadioConfig
from .scenario import _APP_KEYS, APP_KINDS, AppSpec, Scenario, _s_to_ns

# each field whose file key is not its name, as (the key, how its value
# becomes the field's): a duration's seconds per unit of its key, counted
# in ns, or the power block's key for each mode's power in W. A WuRX
# node's decode power has one key: its wurx block's decode_power_w.
_RENAMES = {
    "horizon_ns": ("horizon_s", 1.0),
    "mcu_wakeup_ns": ("mcu_wakeup_latency_us", 1e-6),
    "radio_turn_on_ns": ("radio_turn_on_ms", 1e-3),
    "period_ns": ("period_s", 1.0),
    "cycle_period_ns": ("cycle_period_s", 1.0),
    "linger_ns": ("linger_ms", 1e-3),
    "rx_timeout_ns": ("rx_timeout_ms", 1e-3),
    "power_w": ("power", {f"{mode}_w": mode for mode in POWER_KEYS}),
}


class _Sim(NamedTuple):
    """The sim section: the ``Scenario`` fields outside its records."""

    horizon_ns: int
    seed: int = 0


def _file_key(name: str) -> str:
    return _RENAMES.get(name, (name,))[0]


def _require_keys(section, allowed: set, where: str) -> None:
    if not isinstance(section, dict):
        raise ScenarioError(f"{where} must be a mapping")
    unknown = set(section) - allowed
    if unknown:
        raise ScenarioError(
            f"unknown key(s) in {where}: {', '.join(sorted(unknown))}")


def _get(section: dict, key: str, kind, where: str):
    if key not in section:
        raise ScenarioError(f"missing required key {where}.{key}")
    value = section[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ScenarioError(
                f"{where}.{key} is too large for a float") from None
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ScenarioError(
            f"{where}.{key} must be {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}")
    if kind is float and not math.isfinite(value):  # NaN passes every gate
        raise ScenarioError(f"{where}.{key} must be finite, got {value}")
    return value


def _parse_fields(cls, raw, where: str, label: str | None = None,
                  names=None):
    """Build the named tuple ``cls`` from the mapping ``raw``.

    The keys of the fields ``names`` (all of them by default) are the only
    allowed keys, and the fields' type hints give the types
    (``get_type_hints`` resolves them however the Python version stores
    the annotations; ``int | None`` is an int). An omitted key takes the
    field's default; a field without one is required, except a block,
    which then takes its record's defaults. The record's own check, and a
    block's, fails as a ``ScenarioError`` that names ``label``, a format
    string over the fields before the block, or ``where``.
    """
    names = cls._fields if names is None else names
    _require_keys(raw, set(map(_file_key, names)), where)
    hints, defaults = get_type_hints(cls), cls._field_defaults
    label, values = label or where, {}
    for name in names:
        key, unit = _RENAMES.get(name, (name, None))
        kind, *_ = get_args(hints[name]) or (hints[name],)
        if key not in raw and name in defaults:
            values[name] = defaults[name]
        elif hasattr(kind, "_fields"):  # a block: a record of its own
            values[name] = _parse_fields(kind, raw.get(key, {}),
                                         f"{where}.{key}",
                                         label.format(**values))
        elif isinstance(unit, float):  # a duration, counted in ns
            values[name] = _s_to_ns(_get(raw, key, float, where) * unit,
                                    f"{where}.{key}")
        elif unit:  # the power block
            block, block_where = raw[key], f"{where}.{key}"
            _require_keys(block, set(unit), block_where)
            values[name] = {mode: _get(block, block_key, float, block_where)
                            for block_key, mode in unit.items()
                            if block_key in block}
        else:
            values[name] = _get(raw, key, kind, where)
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ScenarioError(f"{label.format(**values)}: {exc}") from exc


def _parse_app(raw) -> AppSpec:
    if not isinstance(raw, dict):
        raise ScenarioError("app must be a mapping")
    kind = _get(raw, "kind", str, "app")
    if kind not in APP_KINDS:
        raise ScenarioError(f"app.kind must be one of {APP_KINDS}, got {kind!r}")
    names = ("kind", *_APP_KEYS[kind])
    # checked here first, so that the error names the kind
    _require_keys(raw, set(map(_file_key, names)), f"app of kind {kind!r}")
    return _parse_fields(AppSpec, raw, "app", names=names)


def from_dict(raw: dict) -> Scenario:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario root must be a mapping")
    _require_keys(raw, {"sim", "radio", "channel", "nodes", "app"}, "scenario")
    for section in ("sim", "nodes", "app"):
        if section not in raw:
            raise ScenarioError(f"missing required section '{section}'")
    sim = _parse_fields(_Sim, raw["sim"], "sim")
    if not isinstance(raw["nodes"], list):
        raise ScenarioError("nodes must be a list")
    # only an omitted or null radio or channel section takes the defaults
    radio, channel = ({} if raw.get(key) is None else raw[key]
                      for key in ("radio", "channel"))
    return Scenario(
        **sim._asdict(),
        radio=_parse_fields(RadioConfig, radio, "radio"),
        channel=_parse_fields(ChannelParams, channel, "channel"),
        nodes=tuple(_parse_fields(NodeSpec, node, f"nodes[{index}]",
                                  "node {address}")
                    for index, node in enumerate(raw["nodes"])),
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
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: an int of
        # more digits than Python converts, or an impossible date
        raise ScenarioError(f"scenario file is not valid YAML: {exc}") from exc
    return from_dict(raw)
