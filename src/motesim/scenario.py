"""Scenario definition: schema, validation, hashing, presets.

A scenario is a ``Scenario`` record of radio, channel, node and app
records; ``NodeSpec`` and ``WurxSpec`` live in ``node``. Each record checks
its values when it is built or ``_replace``d, a ``Scenario`` with
``validate``, so files, the presets and code alike build only valid
scenarios. A scenario is immutable; ``scenario._replace(seed=...)`` gives
a varied copy.

Loading a scenario file lives in ``scenario_file``, which ``load`` and
``from_dict`` import on their first call, so a run that builds its
scenario in code does not compile the parser.
"""

import hashlib
import json
import math
from typing import NamedTuple

from .channel import ChannelParams, Position
from .errors import ScenarioError, validated
from .node import AWAKE_ROLES, NodeSpec, WurxSpec
from .phy import NS_PER_S, RadioConfig, time_on_air
from .stack import DEFAULT_MTU, HEADER_BYTES, MAX_SEQNO
from .wurx import wub_airtime

SCENARIO_FORMAT_VERSION = 1

# the fields each kind reads, beside ``kind``; a key for any other is rejected
_APP_KEYS = {
    "periodic": ("src", "dst", "payload_len", "period_ns"),
    "wakeup_exchange": ("payload_len", "initiator", "target", "cycles",
                        "cycle_period_ns", "linger_ns", "rx_timeout_ns"),
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


def _s_to_ns(seconds: float, key: str) -> int:
    if not math.isfinite(seconds * NS_PER_S):  # round() would overflow
        raise ScenarioError(f"{key} is too large to count in ns")
    return round(seconds * NS_PER_S)


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
        # a sender ticks at period, 2 period, ... up to the horizon
        ticks = scenario.horizon_ns // app.period_ns
        if ticks > MAX_SEQNO:
            raise ScenarioError(
                f"app: a sender would send up to {ticks} frames, above the "
                f"{MAX_SEQNO} the 16-bit link-header sequence number counts")
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
        if app.cycles > MAX_SEQNO:  # the initiator sends a frame per cycle
            raise ScenarioError(
                f"app.cycles must be at most {MAX_SEQNO}, the frames the "
                f"16-bit link-header sequence number counts")
        # a callback cannot be scheduled before the event that sets it
        if app.linger_ns < 0 or app.rx_timeout_ns < 0:
            raise ScenarioError("app.linger_ms/rx_timeout_ms must be >= 0")
        exchange_ns = (wub_airtime(target.wurx)
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
    """The ``Scenario`` a scenario file's parsed mapping describes."""
    from .scenario_file import from_dict
    return from_dict(raw)


def load(path) -> Scenario:
    """The ``Scenario`` in the YAML scenario file at ``path``."""
    from .scenario_file import load
    return load(path)


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
    if not all(map(math.isfinite, distances)):
        raise ScenarioError(f"distances: each must be finite, got {distances}")
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
    if cycles < 1:  # before the horizon it sets is checked
        raise ScenarioError("app.cycles must be >= 1")
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
