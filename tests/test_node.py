import math
import os
import random
import re
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motesim import (ConfigError, EnergyLedger, IllegalTransition,
                     MoteDevice, Position,
                     power_report)
from motesim import node
from motesim.node import (DEFAULT_POWER_TABLE_W, POWER_LABELS, NodeSpec,
                          TransitionResult, WurxSpec)
from oracles import ReferenceLedger


def make_device(awake=False, with_wurx=False, **kwargs):
    """A mote, or with ``awake`` a base station, which starts awake."""
    wurx = WurxSpec(address=0x2A) if with_wurx else None
    return MoteDevice(NodeSpec(7, "bs" if awake else "mote", Position(),
                               wurx=wurx, **kwargs))


class TestWakePath:
    def test_interrupt_starts_wake_chain(self):
        # the interrupt is a wake from its ns: it enters no state and
        # charges nothing, and its one timer is the timer wake's, due at
        # its tick plus the MCU wake-up and the radio turn-on
        device = make_device()
        result = device.transition(node.WURX_INTERRUPT, 1_000)
        assert result is node.HELD
        assert device._state is node._ASLEEP
        assert (device.mcu, device.radio) == (node.MCU_SLEEP, node.RADIO_OFF)
        assert device.wake_tick_ns == 1_000
        assert device.wake_tick_ns + device.wake_ns == 1_008_000
        assert device.ledger.time_ns == {}

    def test_full_chain_to_rx(self):
        device = make_device()
        assert device.transition(node.WURX_INTERRUPT, 0) is node.HELD
        t = device.wake_tick_ns + device.wake_ns
        assert device.transition(node.WAKE, t) is node._STANDBY
        assert (device.mcu, device.radio) == (node.MCU_ACTIVE,
                                              node.RADIO_STANDBY)
        assert device.wake_tick_ns == math.inf
        assert device.transition(node.START_RX, t) is node._RX
        assert device.radio is node.RADIO_RX
        assert device.rx_since_ns == t == 7_000 + 1_000_000

    def test_retrigger_while_awake_is_noop(self):
        device = make_device(awake=True)
        result = device.transition(node.WURX_INTERRUPT, 5)
        assert result is device._state is node._ACTIVE_OFF
        assert device.mcu is node.MCU_ACTIVE
        assert device.wake_tick_ns == math.inf

    @pytest.mark.parametrize("hold", ["interrupt", "timer"])
    def test_interrupt_while_a_wake_is_held_is_noop(self, hold):
        device = make_device()
        if hold == "interrupt":
            device.transition(node.WURX_INTERRUPT, 1_000)
        else:
            assert device.hold_wake(1_000) == 1_000 + device.wake_ns
        result = device.transition(node.WURX_INTERRUPT, 2_000)
        assert result is device._state is node._ASLEEP  # not HELD
        assert device.wake_tick_ns == 1_000
        device.transition(node.WAKE, 1_000 + device.wake_ns)
        assert device.ledger.time_ns == {"sleep": 1_000,
                                         "mcu_active": device.wake_ns}

    def test_timer_wake_without_a_held_wake_is_illegal(self):
        device = make_device()
        before = (ledger_bits(device), device._label_since_ns,
                  device._state, device._label, device.wake_tick_ns)
        with pytest.raises(IllegalTransition, match=re.escape(
                "node 7: event timer[wake] illegal in state "
                "(mcu=sleep, radio=off) at t=1007000 ns")):
            device.transition(node.WAKE, device.wake_ns)
        assert (ledger_bits(device), device._label_since_ns,
                device._state, device._label, device.wake_tick_ns) == before

    def test_sleep_request_reaches_floor_power(self):
        device = make_device(awake=True)
        device.transition(node.SLEEP_REQUEST, 1_000_000)
        assert (device.mcu, device.radio) == (node.MCU_SLEEP, node.RADIO_OFF)
        device.finalize(2_000_000)
        rows = {r[0]: r for r in power_report(device.ledger,
                                              device.power_table_w)}
        assert rows["sleep"][1] == pytest.approx(1.83e-6)
        assert rows["sleep"][2] == 1_000_000


class TestIllegalTransitions:
    def test_tx_request_while_tx(self):
        device = make_device(awake=True)
        device.transition(node.TURN_RADIO_ON, 0)
        device.transition(node.RADIO_READY, 1_000_000)
        device.transition(node.TX_REQUEST, 1_000_000)
        with pytest.raises(IllegalTransition):
            device.transition(node.TX_REQUEST, 2_000_000)

    def test_tx_request_radio_off(self):
        device = make_device(awake=True)
        with pytest.raises(IllegalTransition):
            device.transition(node.TX_REQUEST, 0)

    def test_sleep_request_while_sleeping(self):
        device = make_device()
        with pytest.raises(IllegalTransition):
            device.transition(node.SLEEP_REQUEST, 0)

    def test_rx_done_without_rx(self):
        device = make_device(awake=True)
        with pytest.raises(IllegalTransition, match=re.escape(
                "node 7: event rx_done illegal in state "
                "(mcu=active, radio=off) at t=0 ns")):
            device.receive(0)
        assert "lora_rx" not in device.ledger.time_ns

    def test_driver_ops_while_asleep(self):
        device = make_device()
        for event in (node.TURN_RADIO_ON, node.TURN_RADIO_OFF,
                      node.START_RX, node.STOP_RX):
            with pytest.raises(IllegalTransition, match=re.escape(
                    f"node 7: event {event} illegal in state "
                    f"(mcu=sleep, radio=off) at t=0 ns")):
                device.transition(event, 0)

    def test_ledger_time_moving_backwards_rejected(self):
        device = make_device(awake=True)
        device.transition(node.TURN_RADIO_ON, 1_000)
        with pytest.raises(IllegalTransition, match="backwards"):
            device.transition(node.RADIO_READY, 999)
        with pytest.raises(IllegalTransition, match="backwards"):
            device.finalize(999)
        device.transition(node.RADIO_READY, 1_000_000)
        device.transition(node.START_RX, 2_000_000)
        with pytest.raises(IllegalTransition, match="backwards"):
            device.receive(1_999_999)


class TestSharedResults:
    def test_results_shared_and_wake_timers_per_device(self):
        # every device returns the same states; the timers the engine sets
        # after a held wake and a radio-on are due after the device's own
        # latencies
        fast = make_device()
        slow = make_device(mcu_wakeup_ns=9_000, radio_turn_on_ns=2_000_000)
        for device in (fast, slow):
            assert device.transition(node.WURX_INTERRUPT, 0) is node.HELD
            woken = device.transition(node.WAKE, device.wake_ns)
            device.transition(node.TURN_RADIO_OFF, 3_000_000)
            turning_on = device.transition(node.TURN_RADIO_ON, 3_000_000)
            ready = device.transition(node.RADIO_READY,
                                      3_000_000 + device.radio_turn_on_ns)
            assert turning_on is node._TURNING_ON
            assert woken is ready is node._STANDBY
        assert [(d.wake_ns, d.radio_turn_on_ns) for d in (fast, slow)] == [
            (1_007_000, 1_000_000), (2_009_000, 2_000_000)]
        a = fast.transition(node.TX_REQUEST, 7_000_000)
        b = slow.transition(node.TX_REQUEST, 7_000_000)
        assert a is b is node._TX
        assert (a.mcu, a.radio) == (node.MCU_ACTIVE, node.RADIO_TX)


# The documented transition table, transcribed independently from the node
# module docstring. States are (mcu, radio), and HELD is (sleep, off) with a
# wake held; events cover both spec events and driver operations. Entries
# give the next state. A held wake's timer is legal at its radio-ready only,
# so the tables apply each event STEP_NS after the last state change.
HELD = ("sleep", "off", "wake held")
DOC_TABLE = {
    ("sleep", "off"): {
        "wurx_interrupt": HELD,
    },
    HELD: {
        "timer[wake]": ("active", "standby"),
        "wurx_interrupt": HELD,
    },
    ("active", "off"): {
        "radio_on": ("active", "turning_on"),
        "sleep_request": ("sleep", "off"),
        "wurx_interrupt": ("active", "off"),
    },
    ("active", "turning_on"): {
        "timer[radio_ready]": ("active", "standby"),
        "wurx_interrupt": ("active", "turning_on"),
    },
    ("active", "standby"): {
        "start_rx": ("active", "rx"),
        "radio_off": ("active", "off"),
        "tx_request": ("active", "tx"),
        "begin_wub_tx": ("active", "tx"),
        "sleep_request": ("sleep", "off"),
        "wurx_interrupt": ("active", "standby"),
    },
    ("active", "rx"): {
        "tx_request": ("active", "tx"),
        "begin_wub_tx": ("active", "tx"),
        "stop_rx": ("active", "standby"),
        "radio_off": ("active", "off"),
        "rx_done": ("active", "rx"),
        "sleep_request": ("sleep", "off"),
        "wurx_interrupt": ("active", "rx"),
    },
    ("active", "tx"): {
        "tx_done": ("active", "standby"),
        "wurx_interrupt": ("active", "tx"),
    },
}

EVENT_NAMES = sorted({name for row in DOC_TABLE.values() for name in row}
                     | {"tx_request", "tx_done", "rx_done", "sleep_request",
                        "timer[wake]", "timer[radio_ready]",
                        "radio_on", "radio_off",
                        "start_rx", "stop_rx", "begin_wub_tx"})


def state_of(device):
    state = (device.mcu, device.radio)
    return HELD if device.wake_tick_ns != math.inf else state


def build_device_in(state, decoding=False):
    """Construct a device and steer it into the requested state; with
    ``decoding``, its WuRX decodes from the start."""
    mcu, radio = state[:2]
    device = make_device(awake=True, with_wurx=decoding)
    if decoding:
        device.wurx_decode(True, 0)
    if mcu == "sleep":
        device.transition(node.SLEEP_REQUEST, 0)
        if state == HELD:
            device.transition(node.WURX_INTERRUPT, 0)
        return device
    if radio in ("turning_on", "standby", "rx", "tx"):
        device.transition(node.TURN_RADIO_ON, 0)
        if radio == "turning_on":
            return device
        device.transition(node.RADIO_READY, 0)
        if radio == "standby":
            return device
        if radio == "rx":
            device.transition(node.START_RX, 0)
            return device
        device.transition(node.TX_REQUEST, 0)
        return device
    return device  # ("active", "off")


# a held wake's timer is due this long after its tick
STEP_NS = 7_000 + 1_000_000


def apply_event(device, name, now_ns):
    if name == "begin_wub_tx":
        return device.begin_wub_tx(now_ns, duty=0.5)
    if name == "rx_done":  # a decode: no event text, as it changes no state
        return device.receive(now_ns)
    return device.transition(name, now_ns)


def expected_label(target, name, decoding):
    """The power label the module docstring gives the state an event
    reached: a sleeping mote charges wurx_decode while its WuRX decodes."""
    mcu, radio = target[:2]
    if radio == "tx":
        return "wub_tx" if name == "begin_wub_tx" else "lora_tx"
    if radio == "rx":
        return "lora_rx"
    if mcu == "active":
        return "mcu_active"
    return "wurx_decode" if decoding else "sleep"


def test_transition_table_exhaustive():
    """Every (state, event) pair behaves exactly as the documented table,
    and each legal one charges the label of the state it reached, with and
    without a WuRX decode in progress."""
    for decoding in (False, True):
        for state, row in DOC_TABLE.items():
            for name in EVENT_NAMES:
                device = build_device_in(state, decoding)
                assert state_of(device) == state
                if name in row:
                    apply_event(device, name, STEP_NS)
                    assert state_of(device) == row[name], \
                        f"{state} --{name}--> wrong target"
                    assert device._label == expected_label(
                        row[name], name, decoding), (state, name, decoding)
                else:
                    with pytest.raises(IllegalTransition):
                        apply_event(device, name, STEP_NS)
                    assert state_of(device) == state


class TestEventsByText:
    """An event is its text: a string built at run time, equal to an
    event's text but another object, drives a transition exactly as the
    module's constant does, and any other text is illegal."""

    EVENTS = (node.WAKE, node.RADIO_READY, node.WURX_INTERRUPT,
              node.TX_REQUEST, node.TX_DONE, node.SLEEP_REQUEST,
              node.TURN_RADIO_ON, node.TURN_RADIO_OFF, node.START_RX,
              node.STOP_RX, node.BEGIN_WUB_TX)

    @staticmethod
    def snapshot(device):
        ledger = device.ledger
        return (state_of(device), device._state, device._label,
                device._label_since_ns, device.wake_tick_ns,
                dict(ledger.time_ns), dict(ledger.energy_j),
                ledger.battery_remaining_j)

    def test_built_text_drives_as_the_constant(self):
        for state, row in DOC_TABLE.items():
            for event in self.EVENTS:
                if event not in row:
                    continue
                built = "".join([event[:1], event[1:]])
                assert built == event and built is not event
                by_constant = build_device_in(state)
                by_text = build_device_in(state)
                result = by_constant.transition(event, STEP_NS)
                assert by_text.transition(built, STEP_NS) is result
                assert self.snapshot(by_text) == self.snapshot(by_constant)

    def test_unknown_text_is_illegal_everywhere(self):
        for state in DOC_TABLE:
            device = build_device_in(state)
            before = self.snapshot(device)
            mcu, radio = state[:2]
            with pytest.raises(IllegalTransition, match=re.escape(
                    f"node 7: event timer[wkae] illegal in state "
                    f"(mcu={mcu}, radio={radio}) at t={STEP_NS} ns")):
                device.transition("timer[wkae]", STEP_NS)
            assert self.snapshot(device) == before


def test_transition_fuzz_million_events():
    """Random event storm: behaviour must match the documented table and
    never reach an undocumented state."""
    rng = random.Random(0xF00D)
    device = build_device_in(("sleep", "off"))
    valid_states = set(DOC_TABLE)
    checked = 0
    now = 0
    while checked < 1_000_000:
        state = state_of(device)
        assert state in valid_states
        name = EVENT_NAMES[rng.randrange(len(EVENT_NAMES))]
        expected = DOC_TABLE[state].get(name)
        if expected is None:
            with pytest.raises(IllegalTransition):
                apply_event(device, name, now + STEP_NS)
            # device state must be unchanged after a rejected event
            assert state_of(device) == state
        else:
            if expected != state:
                now += STEP_NS
            apply_event(device, name, now)
            assert state_of(device) == expected
        checked += 1
    device.finalize(now)
    assert device.ledger.total_time_ns() == now
    assert not device.ledger.depleted


class TestEnergyLedger:
    def test_accrual_matches_product(self):
        ledger = EnergyLedger(1.0e4, 0.0)
        ledger.accrue("lora_tx", 0.240, 313_344_000)
        assert ledger.energy_j["lora_tx"] == pytest.approx(0.07520256,
                                                           rel=1e-12)
        assert ledger.time_ns["lora_tx"] == 313_344_000

    def test_zero_dt_no_change(self):
        ledger = EnergyLedger(1.0e4, 0.0)
        ledger.accrue("sleep", 1.83e-6, 0)
        assert ledger.time_ns == {} and ledger.energy_j == {}

    def test_negative_dt_rejected(self):
        with pytest.raises(ConfigError):
            EnergyLedger(1.0e4, 0.0).accrue("sleep", 1.0, -1)

    def test_harvest_balance_point(self):
        ledger = EnergyLedger(battery_j=10.0, harvest_w=1.0 / 0.9 * 0.9)
        ledger.accrue("mcu_active", 1.0, 5_000_000_000)
        assert ledger.battery_remaining_j == pytest.approx(10.0, rel=1e-9)

    def test_battery_floors_and_latches(self):
        ledger = EnergyLedger(battery_j=1e-6, harvest_w=0.0)
        ledger.accrue("lora_tx", 0.240, 1_000_000_000)
        assert ledger.battery_remaining_j == 0.0
        assert ledger.depleted

    def test_depleted_ledger_keeps_dwell_time_only(self):
        # 24 mJ asked of a 1 mJ battery that harvests 0.1 mJ meanwhile
        ledger = EnergyLedger(battery_j=1e-3, harvest_w=1e-3)
        ledger.accrue("lora_tx", 0.240, 100_000_000)
        assert ledger.depleted and ledger.battery_remaining_j == 0.0
        gained = 1e-3 * 0.1
        assert ledger.harvested_j == gained
        assert ledger.consumed_j == ledger.energy_j["lora_tx"] == 1e-3 + gained
        ledger.accrue("sleep", 1.83e-6, 10 ** 9)
        assert ledger.time_ns == {"lora_tx": 100_000_000, "sleep": 10 ** 9}
        assert ledger.energy_j == {"lora_tx": 1e-3 + gained}
        assert ledger.harvested_j == gained
        assert ledger.battery_remaining_j == 0.0

    def test_battery_gain_rate_bounded(self):
        ledger = EnergyLedger(battery_j=1.0, harvest_w=0.5 * 0.9)
        before = ledger.battery_remaining_j
        ledger.accrue("sleep", 0.0, 2_000_000_000)
        gained = ledger.battery_remaining_j - before
        assert gained <= 0.5 * 0.9 * 2.0 + 1e-12

    def test_conservation_identity(self):
        rng = random.Random(3)
        ledger = EnergyLedger(battery_j=100.0, harvest_w=0.01 * 0.90)
        for _ in range(2000):
            ledger.accrue(rng.choice(("sleep", "lora_tx", "lora_rx")),
                          rng.uniform(0.0, 0.3), rng.randrange(0, 10 ** 8))
        total = ledger.total_energy_j()
        assert total == pytest.approx(ledger.consumed_j, rel=1e-12)
        assert (ledger.battery_initial_j - ledger.battery_remaining_j
                + ledger.harvested_j) == pytest.approx(ledger.consumed_j,
                                                       rel=1e-9)


class TestLedgerIntegration:
    def test_times_partition_horizon(self):
        device = make_device(with_wurx=True)
        device.wurx_decode(True, 5_000_000)
        device.wurx_decode(False, 21_000_000)
        device.transition(node.WURX_INTERRUPT, 21_000_000)
        device.transition(node.WAKE, 22_007_000)
        device.finalize(100_000_000)
        assert device.ledger.total_time_ns() == 100_000_000
        assert device.ledger.time_ns["wurx_decode"] == 16_000_000
        assert device.ledger.time_ns["sleep"] == 5_000_000
        assert device.ledger.time_ns["mcu_active"] == 79_000_000

    def test_wub_dwell_charged_at_duty_power(self):
        device = make_device(awake=True)
        device.transition(node.TURN_RADIO_ON, 0)
        device.transition(node.RADIO_READY, 1_000_000)
        device.begin_wub_tx(1_000_000, duty=0.5)
        device.transition(node.TX_DONE, 17_000_000)
        device.finalize(20_000_000)
        assert device.ledger.time_ns["wub_tx"] == 16_000_000
        assert device.ledger.energy_j["wub_tx"] == pytest.approx(
            0.240 * 0.5 * 0.016, rel=1e-12)

    def test_illegal_wub_tx_leaves_lora_tx_charged(self):
        device = make_device(awake=True)
        with pytest.raises(IllegalTransition):
            device.begin_wub_tx(0, duty=0.5)  # the radio is still off
        device.transition(node.TURN_RADIO_ON, 0)
        device.transition(node.RADIO_READY, 1_000_000)
        device.transition(node.TX_REQUEST, 1_000_000)
        device.transition(node.TX_DONE, 5_000_000)
        device.finalize(6_000_000)
        assert device.ledger.time_ns["lora_tx"] == 4_000_000
        assert device.ledger.energy_j["lora_tx"] == pytest.approx(
            0.240 * 0.004, rel=1e-12)
        assert "wub_tx" not in device.ledger.time_ns

    def test_power_report_zero_rows_for_empty_run(self):
        device = make_device()
        device.finalize(0)
        rows = power_report(device.ledger, device.power_table_w)
        assert all(r[2] == 0 and r[3] == 0.0 for r in rows)
        labels = [r[0] for r in rows]
        assert labels[:5] == ["sleep", "wurx_decode", "mcu_active",
                              "lora_rx", "lora_tx"]

    def test_default_power_table_paper_modes(self):
        assert DEFAULT_POWER_TABLE_W["sleep"] == pytest.approx(1.83e-6)
        assert DEFAULT_POWER_TABLE_W["wurx_decode"] == pytest.approx(284e-6)
        assert DEFAULT_POWER_TABLE_W["lora_tx"] == 0.240
        assert DEFAULT_POWER_TABLE_W["lora_rx"] == 0.050

    def test_radio_draws_must_dominate_idle(self):
        with pytest.raises(ConfigError):
            make_device(power_w={"lora_rx": 1e-3})  # below mcu_active
        with pytest.raises(ConfigError):
            make_device(power_w={"sleep": 5e-3})  # above mcu_active


def bits(value):
    """A float's IEEE-754 bytes, so that 0.0 and -0.0 differ."""
    return struct.pack("<d", value)


class TestLedgerOracle:
    @settings(max_examples=300, deadline=None)
    @given(battery_j=st.floats(0.0, 5.0),
           harvest_w=st.just(0.0) | st.floats(0.0, 0.5),
           steps=st.lists(st.tuples(st.sampled_from(POWER_LABELS),
                                    st.floats(0.0, 0.3),
                                    st.integers(0, 3 * 10 ** 10)),
                          max_size=25))
    # one depletes with no harvest, one with harvest, one only refills
    @example(battery_j=1e-3, harvest_w=0.0,
             steps=[("lora_tx", 0.24, 10 ** 8), ("sleep", 1.83e-6, 10 ** 9)])
    @example(battery_j=1e-3, harvest_w=1e-3,
             steps=[("lora_tx", 0.24, 10 ** 8), ("lora_rx", 0.05, 10 ** 9)])
    @example(battery_j=0.0, harvest_w=0.25,
             steps=[("sleep", 0.0, 10 ** 9), ("mcu_active", 2.4e-3, 0)])
    def test_accrue_equals_the_full_formula_bit_for_bit(self, battery_j,
                                                        harvest_w, steps):
        ledger = EnergyLedger(battery_j, harvest_w)
        oracle = ReferenceLedger(battery_j, harvest_w)
        for label, power_w, dt_ns in steps:
            ledger.accrue(label, power_w, dt_ns)
            oracle.accrue(label, power_w, dt_ns)
            assert ledger.depleted == oracle.depleted
        assert ledger.time_ns == oracle.time_ns
        assert ({label: bits(e) for label, e in ledger.energy_j.items()}
                == {label: bits(e) for label, e in oracle.energy_j.items()})
        for name in ("consumed_j", "harvested_j", "battery_remaining_j"):
            assert bits(getattr(ledger, name)) == bits(getattr(oracle, name))


def listening_device(power_w, battery_j, harvest_rate_w):
    """A base station whose radio entered rx at 1 ms."""
    device = make_device(awake=True, power_w=power_w, battery_j=battery_j,
                         harvest_rate_w=harvest_rate_w)
    device.transition(node.TURN_RADIO_ON, 0)
    device.transition(node.RADIO_READY, 1_000_000)
    device.transition(node.START_RX, 1_000_000)
    return device


def ledger_bits(device):
    ledger = device.ledger
    return (ledger.time_ns,
            {label: bits(e) for label, e in ledger.energy_j.items()},
            bits(ledger.consumed_j), bits(ledger.harvested_j),
            bits(ledger.battery_remaining_j), ledger.depleted,
            device.rx_since_ns)


class TestDecodeCharge:
    """``receive`` charges what a pass through the state machine that stays
    in rx charged, ``_apply`` with the state held, bit for bit."""

    @settings(max_examples=200, deadline=None)
    @given(power_w=st.fixed_dictionaries({}, optional={
               "lora_rx": st.floats(3e-3, 0.5),
               "mcu_active": st.floats(1e-5, 2.9e-3)}),
           battery_j=st.floats(0.0, 5.0),
           harvest_rate_w=st.just(0.0) | st.floats(0.0, 0.5),
           gaps=st.lists(st.integers(0, 10 ** 10), max_size=20),
           tail_ns=st.integers(0, 10 ** 10))
    # the battery runs out at the second decode, without and with harvest
    @example(power_w={}, battery_j=1e-2, harvest_rate_w=0.0,
             gaps=[10 ** 8, 10 ** 9, 0, 10 ** 8], tail_ns=10 ** 9)
    @example(power_w={"lora_rx": 0.5}, battery_j=1e-2, harvest_rate_w=1e-3,
             gaps=[10 ** 7, 10 ** 8, 10 ** 8], tail_ns=10 ** 8)
    def test_receive_equals_apply_of_the_state_held(
            self, power_w, battery_j, harvest_rate_w, gaps, tail_ns):
        decoding = listening_device(power_w, battery_j, harvest_rate_w)
        oracle = listening_device(power_w, battery_j, harvest_rate_w)
        now = 1_000_000
        for gap in gaps:
            now += gap
            decoding.receive(now)
            oracle._apply(now, oracle._state)
            assert ledger_bits(decoding) == ledger_bits(oracle)
        assert decoding._state is node._RX
        assert (decoding.mcu, decoding.radio) == (node.MCU_ACTIVE,
                                                  node.RADIO_RX)
        for device in (decoding, oracle):
            device.finalize(now + tail_ns)
        assert ledger_bits(decoding) == ledger_bits(oracle)
        assert decoding.ledger.total_time_ns() == now + tail_ns


def recorded_accruals(device):
    """The (label, power_w, dt_ns) of every accrual ``device``'s ledger is
    asked for from now on, in order."""
    accruals = []
    accrue = device.ledger.accrue

    def recording(label, power_w, dt_ns):
        accruals.append((label, power_w, dt_ns))
        accrue(label, power_w, dt_ns)

    device.ledger.accrue = recording
    return accruals


def wake_cases(**extra):
    """Give a test of a wake's charges its cases: the strategies below and
    ``extra``'s, each a (strategy, its value in the examples) pair, and
    three examples at default powers, 1 s asleep, whose battery runs out at
    the sleep charge, at the MCU wake-up's and at the turn-on's. Tier-1
    runs 300 examples; CI also runs each such test alone at
    MOTESIM_WAKE_EXAMPLES=10000."""

    def decorate(test):
        for battery_j, harvest_rate_w in ((1e-6, 0.0), (1.8384e-6, 0.0),
                                          (2e-6, 1e-7)):
            test = example(
                power_w={}, battery_j=battery_j,
                harvest_rate_w=harvest_rate_w, mcu_wakeup_ns=7_000,
                radio_turn_on_ns=1_000_000, asleep_ns=10 ** 9,
                tail_ns=10 ** 9,
                **{name: value for name, (_s, value) in extra.items()})(test)
        test = given(
            power_w=st.fixed_dictionaries({}, optional={
                "sleep": st.floats(1e-7, 1e-5),
                "mcu_active": st.floats(1e-4, 2.9e-3)}),
            battery_j=st.floats(0.0, 1e-2),
            harvest_rate_w=st.just(0.0) | st.floats(0.0, 1e-4),
            mcu_wakeup_ns=st.integers(1, 10 ** 7),
            radio_turn_on_ns=st.integers(1, 10 ** 9),
            asleep_ns=st.integers(0, 10 ** 10),
            tail_ns=st.integers(0, 10 ** 10),
            **{name: strategy for name, (strategy, _v) in extra.items()},
        )(test)
        return settings(max_examples=int(
            os.environ.get("MOTESIM_WAKE_EXAMPLES", "300")),
            deadline=None)(test)

    return decorate


class TestTimerWake:
    """A wake is one step, due at radio-ready: from (sleep, off) with a
    wake held it charges the sleep up to the held tick, the MCU wake-up and
    then the radio turn-on, as three accruals. A timer holds the wake for
    its tick, and a WuRX interrupt for its own ns."""

    def test_one_timer_to_radio_ready(self):
        device = make_device(mcu_wakeup_ns=9_000, radio_turn_on_ns=2_000_000)
        assert device.wake_ns == 2_009_000
        accruals = recorded_accruals(device)
        assert device.hold_wake(1_000) == 1_000 + 2_009_000
        ready = device.transition(node.WAKE, 1_000 + 2_009_000)
        assert ready is node._STANDBY
        assert (device.mcu, device.radio) == (node.MCU_ACTIVE,
                                              node.RADIO_STANDBY)
        assert [(label, dt_ns) for label, _p, dt_ns in accruals] == [
            ("sleep", 1_000), ("mcu_active", 9_000),
            ("mcu_active", 2_000_000)]

    def test_tick_before_the_last_charge_is_rejected_and_changes_nothing(
            self):
        # asleep since 5 us: a wake held for a tick 1 ns before that would
        # charge the sleep backwards
        device = make_device(awake=True)
        device.transition(node.SLEEP_REQUEST, 5_000)
        device.hold_wake(4_999)
        before = (ledger_bits(device), device._label_since_ns,
                  device._state, device._label, device.wake_tick_ns)
        with pytest.raises(IllegalTransition, match="backwards"):
            device.transition(node.WAKE, 4_999 + device.wake_ns)
        assert (device.mcu, device.radio) == (node.MCU_SLEEP, node.RADIO_OFF)
        assert (ledger_bits(device), device._label_since_ns,
                device._state, device._label, device.wake_tick_ns) == before
        device.hold_wake(5_000)
        device.transition(node.WAKE, 5_000 + device.wake_ns)
        assert device.ledger.time_ns == {"mcu_active": 5_000 + 1_007_000}

    def test_early_step_is_rejected_and_changes_nothing(self):
        # a held wake's timer is legal at its radio-ready only, 1.012 ms
        device = make_device()
        device.transition(node.WURX_INTERRUPT, 5_000)
        before = (ledger_bits(device), device._label_since_ns,
                  device._state, device._label, device.wake_tick_ns)
        for now_ns in (1_012_000 - 1, 1_012_000 + 1):
            with pytest.raises(IllegalTransition, match=re.escape(
                    "event timer[wake] illegal in state "
                    "(mcu=sleep, radio=off)")):
                device.transition(node.WAKE, now_ns)
            assert (ledger_bits(device), device._label_since_ns,
                    device._state, device._label,
                    device.wake_tick_ns) == before
        device.transition(node.WAKE, 1_012_000)
        assert device.ledger.time_ns == {"sleep": 5_000,
                                         "mcu_active": 1_007_000}

    @staticmethod
    def check_wake(wake, power_w, battery_j, harvest_rate_w, mcu_wakeup_ns,
                   radio_turn_on_ns, asleep_ns, tail_ns):
        """Run ``wake(device, tick_ns, ready_ns)``, which wakes a device
        asleep from 0 with the tick at ``asleep_ns``, then the tail, and
        check its charges against the chain a tick once began."""
        spec = NodeSpec(7, "mote", Position(), power_w=power_w,
                        wurx=WurxSpec(address=0x2A), battery_j=battery_j,
                        harvest_rate_w=harvest_rate_w,
                        mcu_wakeup_ns=mcu_wakeup_ns,
                        radio_turn_on_ns=radio_turn_on_ns)
        table = node.power_table(spec)
        ready_ns = asleep_ns + mcu_wakeup_ns + radio_turn_on_ns
        end_ns = ready_ns + tail_ns
        # the oracle is the chain a tick once began: the sleep charged at
        # the tick, then the MCU wake-up and the turn-on at the radio-ready
        # timer, as three accruals; once one empties the battery, the rest
        # of the run is one dwell in the state the wake stopped in
        oracle = ReferenceLedger(battery_j,
                                 harvest_rate_w * spec.harvest_efficiency)
        expected = []

        def charge(label, dt_ns):
            if dt_ns:
                expected.append((label, table[label], dt_ns))
                oracle.accrue(label, table[label], dt_ns)

        charge("sleep", asleep_ns)
        stop = node.STOPPED
        if oracle.depleted:  # the chain's radio-ready timer was dropped
            charge("mcu_active", end_ns - asleep_ns)
        else:
            charge("mcu_active", mcu_wakeup_ns)
            if oracle.depleted:  # the step stops short of radio-ready
                charge("mcu_active", radio_turn_on_ns + tail_ns)
            else:
                charge("mcu_active", radio_turn_on_ns)
                charge("mcu_active", tail_ns)
                stop = node._STANDBY
        device = MoteDevice(spec)
        accruals = recorded_accruals(device)
        assert wake(device, asleep_ns, ready_ns) is stop
        assert (device.mcu, device.radio) == (stop.mcu, stop.radio)
        assert device.wake_tick_ns == math.inf
        device.finalize(end_ns)
        assert accruals == expected
        ledger = device.ledger
        assert ledger.time_ns == oracle.time_ns
        assert ({label: bits(e) for label, e in ledger.energy_j.items()}
                == {label: bits(e) for label, e in oracle.energy_j.items()})
        for name in ("consumed_j", "harvested_j", "battery_remaining_j"):
            assert bits(getattr(ledger, name)) == bits(
                getattr(oracle, name)), name
        assert ledger.depleted == oracle.depleted

    @wake_cases()
    def test_charges_equal_the_two_timer_chain_bit_for_bit(
            self, power_w, battery_j, harvest_rate_w, mcu_wakeup_ns,
            radio_turn_on_ns, asleep_ns, tail_ns):
        def timer_wake(device, tick_ns, ready_ns):
            assert device.hold_wake(tick_ns) == ready_ns
            return device.transition(node.WAKE, ready_ns)

        self.check_wake(timer_wake, power_w, battery_j, harvest_rate_w,
                        mcu_wakeup_ns, radio_turn_on_ns, asleep_ns, tail_ns)

    # a burst decoded while the wake is held, from its start and length
    # after the tick, each cut to radio-ready, changes no charge
    @wake_cases(burst=(st.none() | st.tuples(st.integers(0, 10 ** 9),
                                             st.integers(0, 10 ** 9)),
                       (0, 16_000_000)))
    def test_wurx_wake_charges_equal_the_two_timer_chain_bit_for_bit(
            self, power_w, battery_j, harvest_rate_w, mcu_wakeup_ns,
            radio_turn_on_ns, asleep_ns, tail_ns, burst):
        def wurx_wake(device, tick_ns, ready_ns):
            held = device.transition(node.WURX_INTERRUPT, tick_ns)
            assert held is node.HELD
            assert device.ledger.time_ns == {}  # nothing charged yet
            if burst is not None:
                start_ns = min(tick_ns + burst[0], ready_ns)
                device.wurx_decode(True, start_ns)
                device.transition(node.WURX_INTERRUPT, start_ns)
                device.wurx_decode(False, min(start_ns + burst[1], ready_ns))
            # the timer the engine sets for HELD, at the tick plus the
            # wake, which it drops for a depleted node; the interrupt
            # charged nothing, so it is never dropped
            return device.transition(node.WAKE,
                                     tick_ns + device.wake_ns)

        self.check_wake(wurx_wake, power_w, battery_j, harvest_rate_w,
                        mcu_wakeup_ns, radio_turn_on_ns, asleep_ns, tail_ns)


def test_every_result_is_a_shared_state():
    """Every legal transition in the documented table returns one of the
    module's shared states, its (mcu, radio) pair and its power label, which
    is the state the device is in unless it held a wake; the engine tells
    the ones it acts on apart by identity, so HELD comes only from
    (sleep, off) with no wake held. A decode returns nothing and keeps the
    state that entered rx."""
    shared = [value for value in vars(node).values()
              if isinstance(value, TransitionResult)]
    assert len({id(result) for result in shared}) == len(shared)
    assert TransitionResult._fields == ("mcu", "radio", "label")
    for state, row in DOC_TABLE.items():
        for name in row:
            if name == "rx_done":
                continue
            device = build_device_in(state)
            result = apply_event(device, name, STEP_NS)
            assert any(result is value for value in shared), (state, name)
            held = state == ("sleep", "off") and name == "wurx_interrupt"
            assert (result is node.HELD) == held, (state, name)
            assert result is (node.HELD if held else device._state)
            assert (result.mcu, result.radio) == row[name][:2]
    device = build_device_in(("active", "rx"))
    assert device.receive(STEP_NS) is None
    assert device._state is node._RX


class TestLabelAcrossWurxModes:
    def test_dwell_partition_across_wurx_decode(self):
        """Decodes starting and ending in every MCU and radio state charge
        the dwell to the label that held it; the label is set once the
        state changed. A node without a WuRX cannot decode."""
        with pytest.raises(IllegalTransition, match="no wake-up receiver"):
            make_device().wurx_decode(True, 0)
        device = make_device(awake=True, with_wurx=True)
        steps = [
            (2_000_000, lambda t: device.wurx_decode(True, t)),
            (3_000_000, lambda t: device.transition(node.SLEEP_REQUEST, t)),
            (10_000_000, lambda t: device.wurx_decode(False, t)),
            (10_000_000, lambda t: device.transition(node.WURX_INTERRUPT, t)),
            (11_007_000, lambda t: device.transition(node.WAKE, t)),
            (15_000_000, lambda t: device.transition(node.TURN_RADIO_OFF, t)),
            (20_000_000, lambda t: device.wurx_decode(True, t)),
            (20_000_000, lambda t: device.transition(node.TURN_RADIO_ON, t)),
            (21_000_000, lambda t: device.transition(
                node.RADIO_READY, t)),
            (21_000_000, lambda t: device.transition(node.START_RX, t)),
            (25_000_000, lambda t: device.transition(node.SLEEP_REQUEST, t)),
            (30_000_000, lambda t: device.wurx_decode(False, t)),
        ]
        labels = []
        for t, step in steps:
            step(t)
            labels.append(device._label)
        assert labels == ["mcu_active", "wurx_decode", "sleep", "sleep",
                          "mcu_active", "mcu_active", "mcu_active",
                          "mcu_active", "mcu_active", "lora_rx",
                          "wurx_decode", "sleep"]
        device.finalize(50_000_000)
        ledger = device.ledger
        assert ledger.total_time_ns() == 50_000_000
        assert ledger.time_ns == {"mcu_active": 14_000_000,
                                  "wurx_decode": 12_000_000,
                                  "lora_rx": 4_000_000,
                                  "sleep": 20_000_000}
        for label, t in ledger.time_ns.items():
            assert ledger.energy_j[label] == pytest.approx(
                DEFAULT_POWER_TABLE_W[label] * t / 1e9, rel=1e-12)
