"""Scenario definition: schema, YAML loading, validation, presets.

A scenario file is YAML with five sections (sim, radio, channel, nodes,
app). Unknown keys and sections that are not mappings are rejected. The
radio and channel sections and a node's wurx and position blocks take
their keys, types and defaults from the named tuple they build;
``NodeSpec`` and ``WurxSpec`` live in ``node``. Each record checks its
values when it is built or ``_replace``d, a ``Scenario`` with ``validate``,
so the loader, the presets and code alike build only valid scenarios; the
loader adds where in the file an error lies. A scenario is immutable;
``scenario._replace(seed=...)`` gives a varied copy.
"""

from __future__ import annotations

import hashlib
import json
import math
from typing import NamedTuple, get_type_hints

from .channel import ChannelParams, Position
from .errors import ConfigError, ScenarioError, validated
from .node import AWAKE_ROLES, POWER_KEYS, NodeSpec, WurxSpec, power_table
from .phy import NS_PER_S, RadioConfig, time_on_air
from .stack import DEFAULT_MTU, HEADER_BYTES
from .wurx import WakeUpFrame, wub_airtime

SCENARIO_FORMAT_VERSION = 1

# the app keys each kind reads, beside ``kind``; any other key is rejected
_APP_KEYS = {
    "periodic": ("src", "dst", "payload_len", "period_s"),
    "wakeup_exchange": ("payload_len", "initiator", "target", "cycles",
                        "cycle_period_s", "linger_ms", "rx_timeout_ms"),
    "none": (),
}
APP_KINDS = tuple(_APP_KEYS)


class AppSpec(NamedTuple):
    kind: str
    src: int | None = None
    dst: int | None = None
    payload_len: int = 16
    period_ns: int = 10 * NS_PER_S
    initiator: int | None = None
    target: int | None = None
    cycles: int = 10
    cycle_period_ns: int = NS_PER_S
    linger_ns: int = 10_000_000
    rx_timeout_ns: int = NS_PER_S


@validated
class Scenario(NamedTuple):
    horizon_ns: int
    seed: int
    radio: RadioConfig
    channel: ChannelParams
    nodes: tuple
    app: AppSpec

    def node(self, address: int) -> NodeSpec:
        for spec in self.nodes:
            if spec.address == address:
                return spec
        raise ScenarioError(f"no node with address {address}")

    def periodic_senders(self) -> tuple:
        """A periodic app's ``src``, or every mote when it is omitted."""
        return ((self.app.src,) if self.app.src is not None else
                tuple(n.address for n in self.nodes if n.role == "mote"))

    def _check(self):
        validate(self)


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


def _s_to_ns(seconds: float, key: str) -> int:
    if not math.isfinite(seconds * NS_PER_S):  # round() would overflow
        raise ScenarioError(f"{key} is too large to count in ns")
    return round(seconds * NS_PER_S)


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


def validate(scenario: Scenario) -> None:
    """The checks a ``Scenario`` runs when built, beside its records'."""
    if scenario.horizon_ns <= 0:
        raise ScenarioError("sim.horizon_s must be > 0")
    if not scenario.nodes:
        raise ScenarioError("nodes: at least one node is required")
    addresses = [n.address for n in scenario.nodes]
    if len(addresses) != len(set(addresses)):
        raise ScenarioError("nodes: addresses must be unique")
    if not 0 <= scenario.seed < 2 ** 64:
        raise ScenarioError("sim.seed must fit in 64 bits")
    app = scenario.app
    if app.kind not in APP_KINDS:
        raise ScenarioError(
            f"app.kind must be one of {APP_KINDS}, got {app.kind!r}")
    # the unicast layer refuses a payload above its MTU
    if not 0 <= app.payload_len <= DEFAULT_MTU:
        raise ScenarioError(f"app.payload_len must be within [0, "
                            f"{DEFAULT_MTU}], got {app.payload_len}")
    frame_airtime = time_on_air(scenario.radio, app.payload_len + HEADER_BYTES)
    if app.kind == "periodic":
        # src may be omitted: then every mote sends
        if app.dst is None:
            raise ScenarioError("app: periodic requires dst")
        if app.dst not in addresses or (app.src is not None
                                        and app.src not in addresses):
            raise ScenarioError("app: src and dst must be node addresses")
        if app.src is not None and scenario.node(app.src).role not in (
                "mote", "bs"):
            raise ScenarioError("app.src must be a mote or bs node")
        if not scenario.periodic_senders():
            raise ScenarioError("app: periodic needs a sender (src or a mote)")
        if app.dst in scenario.periodic_senders():
            raise ScenarioError("app.dst must not be a sender (src, or "
                                "every mote if src is omitted)")
        # a tick must come after the previous frame's TX_END, not at its
        # ns, where the tick was scheduled first. A mote wakes and turns
        # its radio on for each frame; a bs sends from rx, once its radio,
        # turned on at t = 0, is ready: at a tie, before the tick.
        for sender in map(scenario.node, scenario.periodic_senders()):
            cycle_ns = frame_airtime + (
                0 if sender.role == "bs"
                else sender.mcu_wakeup_ns + sender.radio_turn_on_ns)
            if app.period_ns <= cycle_ns:
                raise ScenarioError(
                    f"app.period_s must exceed node {sender.address}'s send "
                    f"cycle: wake-up and radio turn-on (for a mote) plus "
                    f"the frame airtime ({cycle_ns / NS_PER_S:.9f} s)")
            if sender.role == "bs" and app.period_ns < sender.radio_turn_on_ns:
                raise ScenarioError(
                    f"app.period_s must be at least node {sender.address}'s "
                    f"radio turn-on, so that it can send at its first tick "
                    f"({sender.radio_turn_on_ns / NS_PER_S:.9f} s)")
    elif app.kind == "wakeup_exchange":
        if app.initiator is None or app.target is None:
            raise ScenarioError("app: wakeup_exchange requires initiator "
                                "and target")
        if app.initiator not in addresses or app.target not in addresses:
            raise ScenarioError("app: initiator and target must be node "
                                "addresses")
        if app.initiator == app.target:
            raise ScenarioError("app: initiator and target must differ")
        if scenario.node(app.initiator).role not in AWAKE_ROLES:
            raise ScenarioError("app.initiator must start awake: a bs or "
                                "an initiator node")
        target = scenario.node(app.target)
        if target.role in AWAKE_ROLES:
            raise ScenarioError("app.target must start asleep: a mote or a "
                                "sleeper node")
        if target.wurx is None:
            raise ScenarioError("app.target must carry a wurx block")
        if app.cycles < 1:
            raise ScenarioError("app.cycles must be >= 1")
        exchange_ns = (wub_airtime(WakeUpFrame(target.wurx.address,
                                               target.wurx.preamble_bits,
                                               target.wurx.bit_rate_bps))
                       + target.mcu_wakeup_ns + target.radio_turn_on_ns
                       + frame_airtime + app.linger_ns)
        if app.cycle_period_ns <= exchange_ns:
            raise ScenarioError(
                f"app.cycle_period_s must exceed one full exchange "
                f"({exchange_ns / NS_PER_S:.6f} s)")
    # no node may share a sender's position: path loss is undefined there
    senders = (scenario.periodic_senders() if app.kind == "periodic" else
               (app.initiator,) if app.kind == "wakeup_exchange" else ())
    for sender in map(scenario.node, senders):
        for spec in scenario.nodes:
            if spec is not sender and not sender.position.distance_to(
                    spec.position):
                raise ScenarioError(f"node {spec.address} shares the "
                                    f"position of sender {sender.address}")


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
    # imported here: only file-driven runs need PyYAML, so the presets and
    # ``import motesim`` do not pay for importing it
    import yaml
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ScenarioError(f"scenario file is not valid YAML: {exc}") from exc
    return from_dict(raw)


def canonical_dict(scenario: Scenario) -> dict:
    """Stable, JSON-serialisable view used for hashing."""
    view = scenario._asdict()
    view.update(radio=scenario.radio._asdict(),
                channel=scenario.channel._asdict(),
                nodes=[{**node._asdict(), "position": list(node.position),
                        "power_w": dict(node.power_w),
                        "wurx": None if node.wurx is None
                        else node.wurx._asdict()}
                       for node in scenario.nodes],
                app=scenario.app._asdict())
    return {"format_version": SCENARIO_FORMAT_VERSION,
            "sim": {"horizon_ns": view.pop("horizon_ns"),
                    "seed": view.pop("seed")},
            **view}


def scenario_hash(scenario: Scenario) -> str:
    blob = json.dumps(canonical_dict(scenario), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


# -- presets -------------------------------------------------------------------

PAPER_RADIO = RadioConfig()  # SF12 / 500 kHz / 4-6 / +14 dBm defaults

DEFAULT_SWEEP_DISTANCES_M = (1.0, 50.0, 100.0, 200.0, 400.0, 600.0,
                             800.0, 1000.0, 1500.0, 2500.0)


def range_sweep_scenario(distances, packets: int = 360, period_s: float = 10.0,
                         payload_len: int = 16, seed: int = 1,
                         shadowing_sigma_db: float = 0.0) -> Scenario:
    """Coverage preset: a mote sends ``packets`` frames to base station 1,
    and the run ends when the last one lands. Base station k listens at
    ``distances[k - 1]`` from it: station 1 at the origin with the mote at
    x = ``distances[0]``, the others at that x and y = their distance, so
    each distance is exact. The mote's address follows the stations'."""
    if not distances or min(distances) <= 0:
        raise ScenarioError("distances: at least one is needed, each > 0")
    if packets < 1:
        raise ScenarioError("packets must be >= 1")
    mote = NodeSpec(address=len(distances) + 1, role="mote",
                    position=Position(x=distances[0]))
    period_ns = _s_to_ns(period_s, "period_s")
    return Scenario(
        horizon_ns=(packets * period_ns + mote.mcu_wakeup_ns
                    + mote.radio_turn_on_ns
                    + time_on_air(PAPER_RADIO, payload_len + HEADER_BYTES)),
        seed=seed,
        radio=PAPER_RADIO,
        channel=ChannelParams(shadowing_sigma_db=shadowing_sigma_db),
        nodes=(NodeSpec(address=1, role="bs", position=Position()),
               *(NodeSpec(address=address, role="bs",
                          position=Position(x=distances[0], y=distance))
                 for address, distance in enumerate(distances[1:], 2)),
               mote),
        app=AppSpec(kind="periodic", src=mote.address, dst=1,
                    payload_len=payload_len, period_ns=period_ns),
    )


def range_point_scenario(distance_m: float, packets: int = 360,
                         period_s: float = 10.0, payload_len: int = 16,
                         seed: int = 1,
                         shadowing_sigma_db: float = 0.0) -> Scenario:
    """``range_sweep_scenario`` of one distance: base station 1 at the
    origin and mote 2 at ``distance_m`` on the x axis."""
    return range_sweep_scenario((distance_m,), packets, period_s,
                                payload_len, seed, shadowing_sigma_db)


def power_profile_scenario(cycles: int = 10, cycle_period_s: float = 1.0,
                           payload_len: int = 16, distance_m: float = 2.0,
                           linger_ms: float = 10.0, seed: int = 1,
                           wurx_address: int = 0x2A) -> Scenario:
    """Micro-benchmark preset: an initiator wakes a WuRX-equipped sleeper
    once per cycle and unicasts one payload to it."""
    return Scenario(
        horizon_ns=_s_to_ns((cycles + 1) * cycle_period_s, "horizon"),
        seed=seed,
        radio=PAPER_RADIO,
        channel=ChannelParams(),
        nodes=(
            NodeSpec(address=1, role="initiator", position=Position()),
            NodeSpec(address=2, role="sleeper",
                     position=Position(x=distance_m),
                     wurx=WurxSpec(address=wurx_address)),
        ),
        app=AppSpec(kind="wakeup_exchange", initiator=1, target=2,
                    payload_len=payload_len, cycles=cycles,
                    cycle_period_ns=_s_to_ns(cycle_period_s, "cycle_period_s"),
                    linger_ns=_s_to_ns(linger_ms * 1e-3, "linger_ms")),
    )
