"""Invariants of every valid scenario, over random scenarios built through
``scenario.from_dict`` (ROADMAP aim 3).

The generator draws 1 to 8 nodes with random roles and positions, depleting
batteries, harvest and WuRX blocks, shadowing, the radio's spreading factor
and bandwidth, and every app kind. It builds each scenario from valid ranges
only, so no draw is thrown away, and it aims a share of the horizons between
a wake's tick and its radio-ready. Tier-1 runs a fixed number of examples;
set MOTESIM_PROPERTY_EXAMPLES to run more.
"""

import math
import os
import tempfile

import pytest
from hypothesis import HealthCheck, Phase, example, given, settings
from hypothesis import strategies as st

from motesim.engine import Simulator
from motesim.node import WurxSpec
from motesim.phy import ALLOWED_BANDWIDTHS_HZ, NS_PER_S, RadioConfig, \
    time_on_air
from motesim.report import emit, render_text
from motesim.scenario import from_dict
from motesim.stack import HEADER_BYTES
from motesim.wurx import wub_airtime

EXAMPLES = int(os.environ.get("MOTESIM_PROPERTY_EXAMPLES", "150"))
PROPERTY_SETTINGS = settings(
    max_examples=EXAMPLES, derandomize=True, database=None, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
ROLES = ("bs", "mote", "initiator", "sleeper")
EXTENSION_NS = 10_000_000  # past any wake the generator draws


def wake_ns(node):
    """A node's MCU wake-up plus radio turn-on, as its record counts them."""
    return (round(node["mcu_wakeup_latency_us"] * 1e-6 * NS_PER_S)
            + round(node["radio_turn_on_ms"] * 1e-3 * NS_PER_S))


@st.composite
def scenarios(draw):
    """A scenario file's mapping, valid by construction."""
    kind = draw(st.sampled_from(("periodic", "wakeup_exchange", "none")))
    count = draw(st.integers(1 if kind == "none" else 2, 8))
    addresses = draw(st.lists(st.integers(1, 60), min_size=count,
                              max_size=count, unique=True))
    roles = [draw(st.sampled_from(ROLES)) for _ in addresses]
    if kind == "periodic":  # to node 0, mostly a listening station
        src = draw(st.booleans())  # else every mote sends, in phase
        if src:
            roles[1] = draw(st.sampled_from(("mote", "bs")))
            if draw(st.booleans()):
                roles[0] = "bs"
        else:
            roles[0] = "bs"
            if "mote" not in roles[1:]:
                roles[1] = "mote"
    elif kind == "wakeup_exchange":
        roles[0] = draw(st.sampled_from(("bs", "initiator")))
        roles[1] = draw(st.sampled_from(("mote", "sleeper")))
    x = 0.0
    nodes = []
    for index, (address, role) in enumerate(zip(addresses, roles)):
        # within wake range of the last node, or out to data range; no two
        # nodes share a position
        x += draw(st.floats(0.5, 6.0) | st.floats(6.0, 400.0))
        node = {
            "address": address, "role": role,
            "position": {"x": x, "y": draw(st.floats(0.0, 3.0))},
            "battery_j": draw(st.sampled_from((1.0e4, 1.0e4, 0.5, 2e-5))
                              .flatmap(lambda high: st.just(high) if high > 1
                                       else st.floats(0.0, high))),
            "harvest_rate_w": draw(st.just(0.0) | st.floats(0.0, 0.02)),
            "mcu_wakeup_latency_us": float(draw(st.integers(1, 50))),
            "radio_turn_on_ms": draw(st.floats(0.5, 5.0)),
        }
        if role == "sleeper" or kind == "wakeup_exchange" and index == 1 \
                or draw(st.booleans()):
            node["wurx"] = {
                "address": draw(st.sampled_from((7, 42, 200))),
                "sensitivity_dbm": draw(st.floats(-60.0, -40.0)),
                "bit_rate_bps": draw(st.floats(250.0, 1000.0)),
                "preamble_bits": draw(st.integers(0, 16)),
            }
        nodes.append(node)
    radio = {"spreading_factor": draw(st.integers(7, 12)),
             "bandwidth_hz": draw(st.sampled_from(ALLOWED_BANDWIDTHS_HZ))}
    payload_len = draw(st.integers(0, 32))
    airtime_ns = time_on_air(RadioConfig(**radio), payload_len + HEADER_BYTES)
    app = {"kind": kind}
    slack_ns = draw(st.integers(1_000_000, 1_500_000_000))
    if kind == "periodic":
        senders = [nodes[1]] if src else [n for n in nodes
                                          if n["role"] == "mote"]
        cycle_ns = max(airtime_ns + (0 if n["role"] == "bs" else wake_ns(n))
                       for n in senders)
        period_ns = max(cycle_ns, max(
            round(n["radio_turn_on_ms"] * 1e-3 * NS_PER_S) for n in senders)
        ) + slack_ns
        app.update(dst=nodes[0]["address"], payload_len=payload_len,
                   period_s=period_ns / NS_PER_S)
        if src:
            app["src"] = nodes[1]["address"]
        # a mote sender's tick, or its tick plus part of its wake
        sleepers = [n for n in senders if n["role"] == "mote"]
        start_ns, window_ns = period_ns, (
            wake_ns(draw(st.sampled_from(sleepers))) if sleepers else 0)
        ticks = draw(st.integers(1, 4))
    elif kind == "wakeup_exchange":
        target = nodes[1]
        burst_ns = wub_airtime(WurxSpec(**target["wurx"]))
        linger_ns = draw(st.integers(0, 50)) * 1_000_000
        cycle_ns = (burst_ns + wake_ns(target) + airtime_ns + linger_ns
                    + slack_ns)
        cycles = draw(st.integers(1, 4))
        app.update(initiator=nodes[0]["address"],
                   target=target["address"], payload_len=payload_len,
                   cycles=cycles, cycle_period_s=cycle_ns / NS_PER_S,
                   linger_ms=linger_ns / 1e6,
                   rx_timeout_ms=float(draw(st.integers(0, 2000)
                                            | st.integers(1000, 2000))))
        # a burst's end, where the target's wake begins, plus part of it
        start_ns, window_ns = cycle_ns + burst_ns, wake_ns(target)
        ticks = draw(st.integers(1, cycles))
        period_ns = cycle_ns
    else:
        start_ns = window_ns = 0
        period_ns, ticks = slack_ns, 1
    horizon_ns = start_ns + (ticks - 1) * period_ns + (
        draw(st.integers(0, window_ns - 1_000)) if window_ns
        and draw(st.booleans()) else draw(st.integers(1_000_000, period_ns)))
    return {
        "sim": {"horizon_s": horizon_ns / NS_PER_S,
                "seed": draw(st.integers(0, 2 ** 32))},
        "radio": radio,
        "channel": {"shadowing_sigma_db": draw(st.just(0.0)
                                               | st.floats(0.0, 8.0))},
        "nodes": nodes,
        "app": app,
    }


class RecordingSimulator(Simulator):
    """A ``Simulator`` that records what its run did, beside what it
    reports: the (timestamp, sequence) key of every event it pops, from the
    withdrawn-callback check each pop passes first; every frame start and
    every decode; and, per node, the ns its battery emptied, worked out
    from the charge that emptied it. It also checks at every charge that a
    depleted ledger gains no energy."""

    def __init__(self, scenario):
        self.due = {}  # sequence -> timestamp, of every event scheduled
        self.popped = []
        self.starts = []  # (address, ns)
        self.decodes = []  # (frame id, listener, ns)
        self.emptied = {}  # address -> ns
        super().__init__(scenario)
        for address, driver in self.drivers.items():
            driver.rx_done = self._recording_rx_done(address, driver.rx_done)
        for device in self.devices.values():
            self._watch(device)

    def _build_apps(self):
        sim = self

        class Popped(set):
            def __contains__(self, seq):
                sim.popped.append((sim.due[seq], seq))
                return super().__contains__(seq)

        self._withdrawn = Popped()  # before the services bind its add
        super()._build_apps()

    def schedule(self, at_ns, kind, target, payload=None):
        seq = super().schedule(at_ns, kind, target, payload)
        self.due[seq] = at_ns
        return seq

    def begin_transmission(self, device, data):
        self.starts.append((device.address, self.now))
        return super().begin_transmission(device, data)

    def _recording_rx_done(self, address, rx_done):
        def recording(frame):
            self.decodes.append((frame.frame_id, address, self.now))
            rx_done(frame)
        return recording

    def _watch(self, device):
        ledger = device.ledger
        accrue = ledger.accrue

        def watched(label, power_w, dt_ns):
            if ledger.depleted:
                before = (dict(ledger.energy_j), ledger.consumed_j,
                          ledger.harvested_j, ledger.battery_remaining_j)
                accrue(label, power_w, dt_ns)
                assert (dict(ledger.energy_j), ledger.consumed_j,
                        ledger.harvested_j,
                        ledger.battery_remaining_j) == before
                return
            remaining_j = ledger.battery_remaining_j
            accrue(label, power_w, dt_ns)
            rate_w = power_w - ledger.harvest_w
            if ledger.depleted:  # this charge began at the dwell's start
                self.emptied[device.address] = device._label_since_ns + (
                    remaining_j / rate_w * NS_PER_S if rate_w > 0 else 0)

        ledger.accrue = watched


def run(raw):
    sim = RecordingSimulator(from_dict(raw))
    return sim, sim.run()


def output_bytes(metrics):
    with tempfile.TemporaryDirectory() as out:
        paths = emit(metrics, "csv", out)
        files = {path.name: path.read_bytes() for path in paths}
    return files, "\n".join(render_text(metrics))


def dwell_by_label(metrics):
    return {report.address: {row[0]: row[2] for row in report.rows}
            for report in metrics.energy}


# two motes 2 m apart send in phase to a station 300 m away: their frames
# collide there
IN_PHASE = {
    "sim": {"horizon_s": 2.5},
    "nodes": [{"address": 1, "role": "bs"},
              {"address": 2, "role": "mote", "position": {"x": 300.0}},
              {"address": 3, "role": "mote", "position": {"x": 302.0}}],
    "app": {"kind": "periodic", "dst": 1, "period_s": 2.0},
}
# the horizon falls 0.5 ms into the target's wake from its first burst,
# which ends at 1.016 s
WAKE_AT_HORIZON = {
    "sim": {"horizon_s": 1.0165},
    "nodes": [{"address": 1, "role": "initiator"},
              {"address": 2, "role": "sleeper", "position": {"x": 2.0},
               "wurx": {"address": 42}}],
    "app": {"kind": "wakeup_exchange", "initiator": 1, "target": 2,
            "cycles": 2},
}


@PROPERTY_SETTINGS
@given(raw=scenarios())
@example(raw=IN_PHASE)
@example(raw=WAKE_AT_HORIZON)
def test_every_valid_scenario_keeps_the_invariants(raw):
    # no MotesimError: any raises out of the run
    sim, metrics = run(raw)
    horizon_ns = metrics.horizon_ns

    # dwell times partition the horizon, and energy is conserved
    for report in metrics.energy:
        assert report.total_time_ns == horizon_ns
        assert sum(row[2] for row in report.rows) == horizon_ns
        scale = max(report.battery_initial_j, report.consumed_j)
        assert math.isclose(
            report.consumed_j - report.harvested_j,
            report.battery_initial_j - report.battery_remaining_j,
            rel_tol=0.0, abs_tol=1e-12 * scale)
        assert report.depleted == (report.address in sim.emptied)

    # delivered <= sent on every link
    for stats in metrics.links.values():
        assert 0 <= stats.delivered <= stats.sent

    # a frame is delivered iff its dst decoded it
    decoded = {(frame_id, rx) for frame_id, rx, _ns in sim.decodes}
    for packet in metrics.packets:
        assert (packet.outcome == "delivered") == (
            (packet.frame_id, packet.dst) in decoded)

    # events dispatch in strictly increasing (timestamp, sequence) order
    assert len(sim.popped) >= metrics.event_count
    assert all(a < b for a, b in zip(sim.popped, sim.popped[1:]))

    # an exchange's outcome is what its target received
    if raw["app"]["kind"] == "wakeup_exchange":
        initiator, target = raw["app"]["initiator"], raw["app"]["target"]
        received = {msg.seqno: (t_rx, msg)
                    for t_rx, msg in sim.apps[target].received}
        sent = [packet for packet in metrics.packets
                if (packet.src, packet.dst) == (initiator, target)]
        assert len(sent) == sum(ex.outcome != "wake-timeout"
                                for ex in metrics.exchanges)
        frames = iter(sent)
        for exchange in metrics.exchanges:
            if exchange.outcome == "wake-timeout":
                assert exchange.data_rx_ns is None
                continue
            packet = next(frames)
            if exchange.outcome == "completed":
                t_rx, msg = received[packet.seqno]
                assert exchange.data_rx_ns == t_rx
                assert (msg.src, msg.dst) == (initiator, target)
                assert packet.outcome == "delivered"
            else:
                assert exchange.outcome == "data-lost"
                assert packet.seqno not in received
                assert exchange.data_rx_ns is None

    # two runs give the same trace hash and the same output bytes
    _again, repeated = run(raw)
    assert repeated.trace_hash == metrics.trace_hash
    assert repeated.event_count == metrics.event_count
    assert output_bytes(repeated) == output_bytes(metrics)

    # a longer run spent at least as long in every label by the horizon:
    # what happened up to it does not depend on where the run stops
    longer = dict(raw, sim=dict(raw["sim"], horizon_s=(
        horizon_ns + EXTENSION_NS) / NS_PER_S))
    _longer_sim, extended = run(longer)
    for address, dwell in dwell_by_label(metrics).items():
        for label, time_ns in dwell.items():
            assert dwell_by_label(extended)[address][label] >= time_ns, (
                address, label)


# ROADMAP's case: a station whose battery empties 0.2 s into its rx
# decodes a frame that ends at 10.4 s
LATE_DECODE = {
    "sim": {"horizon_s": 30.0, "seed": 42},
    "nodes": [{"address": 1, "role": "bs", "battery_j": 0.01},
              {"address": 2, "role": "mote", "position": {"x": 600.0}}],
    "app": {"kind": "periodic", "src": 2, "dst": 1, "period_s": 10.0},
}


@pytest.mark.xfail(strict=True, reason=(
    "ROADMAP item 6: a node stops at its next charge, not at the ns its "
    "battery empties"))
@settings(PROPERTY_SETTINGS, phases=(Phase.explicit, Phase.generate))
@given(raw=scenarios())
@example(raw=LATE_DECODE)
def test_no_frame_starts_or_is_decoded_after_the_battery_empties(raw):
    sim, _metrics = run(raw)
    emptied = sim.emptied
    late_starts = [(address, ns) for address, ns in sim.starts
                   if ns > emptied.get(address, math.inf)]
    late_decodes = [(rx, ns) for _frame, rx, ns in sim.decodes
                    if ns > emptied.get(rx, math.inf)]
    assert not late_starts and not late_decodes
