import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import motesim.stack
from motesim import (ChannelParams, PayloadTooLarge, Position, RadioConfig,
                     RadioUnavailable, Scenario, UnicastMessage,
                     decode_message, encode_message, time_on_air)
from motesim.contract_kit import run_contract_checks
from motesim.engine import Simulator, run
from motesim.frame import Frame
from motesim.scenario import AppSpec, NodeSpec
from motesim.stack import (DEFAULT_MTU, HEADER, HEADER_BYTES, MAX_SEQNO,
                           PeriodicSenderApp, Services, Unicast)


def bare_scenario(horizon_s=100.0):
    return Scenario(
        horizon_ns=round(horizon_s * 1e9), seed=1, radio=RadioConfig(),
        channel=ChannelParams(),
        nodes=(NodeSpec(address=1, role="initiator", position=Position()),),
        app=AppSpec(kind="none"))


class SimHarness:
    """Contract-kit harness around the simulated radio backend."""

    def __init__(self):
        self.sim = Simulator(bare_scenario(), record_trace=False)
        self.driver = self.sim.drivers[1]
        self.turn_on_ns = self.sim.scenario.node(1).radio_turn_on_ns

    def make_config(self):
        return RadioConfig()

    def airtime_ns(self, payload_len):
        return time_on_air(self.driver.config, payload_len)

    def advance(self, dt_ns):
        self.sim.run_until(self.sim.now + dt_ns)


def test_simulated_driver_satisfies_contract():
    passed = run_contract_checks(SimHarness())
    assert len(passed) == 6


class TestHeaderCodec:
    def test_roundtrip(self):
        msg = UnicastMessage(src=7, dst=1, seqno=42, payload=b"\xde\xad")
        assert decode_message(encode_message(msg)) == msg

    def test_header_is_six_bytes(self):
        assert HEADER_BYTES == 6
        assert len(encode_message(UnicastMessage(1, 2, 3, b""))) == 6

    def test_little_endian_layout(self):
        data = encode_message(UnicastMessage(0x0102, 0x0304, 0x0506, b""))
        assert data == bytes([0x02, 0x01, 0x04, 0x03, 0x06, 0x05])

    def test_short_frame_decodes_to_none(self):
        assert decode_message(b"\x01\x02") is None


class FakeDriver:
    """Minimal in-memory driver for unicast-layer unit tests."""

    def __init__(self):
        self.sent = []
        self._handles = iter(range(1, 100))
        self.rx_done = None
        self.tx_done = None

    def bind(self, rx_done=None, tx_done=None):
        if rx_done:
            self.rx_done = rx_done
        if tx_done:
            self.tx_done = tx_done

    def send(self, data):
        handle = next(self._handles)
        self.sent.append(data)
        return handle


def frame_with(payload, **kwargs):
    """A frame carrying ``payload``, its header fields parsed as the
    engine's ``begin_transmission`` parses them: None when too short."""
    if len(payload) >= HEADER_BYTES:
        src, dst, seqno = HEADER.unpack_from(payload)
    else:
        src, dst, seqno = 0, None, None
    return Frame(frame_id=1, src=src, dst=dst, seqno=seqno, payload=payload,
                 spreading_factor=12, bandwidth_hz=500_000,
                 frequency_hz=868e6, noise_floor_dbm=-111.0, **kwargs)


class TestUnicast:
    def test_send_returns_the_seqno_it_sent(self):
        driver = FakeDriver()
        unicast = Unicast(driver, 1)
        seqnos = [unicast.send(2, b"x") for _ in range(3)]
        assert seqnos == [decode_message(data).seqno
                          for data in driver.sent] == [1, 2, 3]

    def test_send_prepends_header(self):
        unicast = Unicast(FakeDriver(), local_address=5)
        unicast.send(9, b"\x01\x02\x03")
        data = unicast.driver.sent[0]
        msg = decode_message(data)
        assert (msg.src, msg.dst, msg.seqno) == (5, 9, 1)
        assert msg.payload == b"\x01\x02\x03"

    @settings(max_examples=300, deadline=None)
    @given(src=st.integers(0, 0xFFFF), dst=st.integers(0, 0xFFFF),
           seqno=st.integers(1, MAX_SEQNO),
           payload=st.binary(max_size=DEFAULT_MTU))
    def test_send_hands_its_driver_the_encoded_message(
            self, src, dst, seqno, payload):
        # send packs the header itself, with no message record: its bytes
        # are those of encode_message, HEADER's one other writer
        unicast = Unicast(FakeDriver(), local_address=src)
        unicast._seqno = seqno - 1  # the frame before sent seqno - 1
        assert unicast.send(dst, payload) == seqno
        assert unicast.driver.sent == [
            encode_message(UnicastMessage(src, dst, seqno, payload))]

    def test_mtu_guard(self):
        unicast = Unicast(FakeDriver(), local_address=5)
        unicast.send(9, bytes(255))
        with pytest.raises(PayloadTooLarge):
            unicast.send(9, bytes(256))

    def test_filter_delivers_matching_dst(self):
        driver = FakeDriver()
        unicast = Unicast(driver, local_address=5)
        got = []
        unicast.on_message = got.append
        data = encode_message(UnicastMessage(2, 5, 1, b"x"))
        driver.rx_done(frame_with(data))
        assert got == [UnicastMessage(2, 5, 1, b"x")]
        assert unicast.overheard == 0

    def test_filter_drops_foreign_dst_as_overheard(self):
        driver = FakeDriver()
        unicast = Unicast(driver, local_address=5)
        got = []
        unicast.on_message = got.append
        driver.rx_done(frame_with(encode_message(UnicastMessage(2, 6, 1,
                                                                b"x"))))
        driver.rx_done(frame_with(b"\x05\x00"))  # too short for a header
        assert got == []
        assert unicast.overheard == 2

    def test_received_frame_decoded_once(self, monkeypatch):
        calls = []
        original = motesim.stack.decode_message

        def counting(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(motesim.stack, "decode_message", counting)
        driver = FakeDriver()
        unicast = Unicast(driver, local_address=5)
        data = encode_message(UnicastMessage(2, 5, 1, b"x"))
        driver.rx_done(frame_with(data))  # no consumer: nothing to decode
        assert calls == [] and unicast.overheard == 0
        got = []
        unicast.on_message = got.append
        driver.rx_done(frame_with(data))
        assert calls == [data]
        assert got == [UnicastMessage(2, 5, 1, b"x")]
        # a frame addressed to another node is counted, not decoded
        driver.rx_done(frame_with(encode_message(
            UnicastMessage(2, 6, 2, b"y"))))
        assert calls == [data]
        assert len(got) == 1 and unicast.overheard == 1


def test_periodic_sender_hears_tx_done_from_its_driver():
    driver = FakeDriver()
    calls = []
    services = Services(
        now_ns=lambda: 0, call_at=None, cancel=None,
        request_sleep=lambda: calls.append("sleep"),
        wake_at=lambda tick_ns: calls.append(("wake", tick_ns)),
        send_burst=None, target_awake=None, log=None)
    app = PeriodicSenderApp(Unicast(driver, 1), services, dst=2,
                            payload_len=4, period_ns=10)
    app.start()  # a sleeping sender sets no tick callback, only its wake
    assert calls == [("wake", 10)]
    app.on_radio_ready()  # the next wake is set before the frame is sent
    assert len(driver.sent) == 1 and calls == [("wake", 10), ("wake", 20)]
    driver.tx_done(1)
    assert calls == [("wake", 10), ("wake", 20), "sleep"]


def test_bs_sender_listens_from_its_first_radio_ready():
    """A bs sender's idle policy is rx: from the end of its 1 ms radio
    turn-on at t = 0 it is listening or sending, never in standby."""
    scenario = Scenario(
        horizon_ns=30 * 10 ** 9, seed=1, radio=RadioConfig(),
        channel=ChannelParams(),
        nodes=(NodeSpec(address=1, role="bs", position=Position()),
               NodeSpec(address=2, role="bs", position=Position(x=100.0))),
        app=AppSpec(kind="periodic", src=1, dst=2, period_ns=10 ** 10))
    metrics = run(scenario, record_trace=False)
    dwell = {label: time_ns for label, _p, time_ns, _e, _pct
             in metrics.energy[0].rows}
    assert dwell["mcu_active"] == 1_000_000
    assert dwell["lora_rx"] + dwell["lora_tx"] == 30 * 10 ** 9 - 1_000_000
    assert [p.outcome for p in metrics.packets] == [
        "delivered", "delivered", "in-flight"]


class TestSendErrors:
    def test_send_with_radio_off(self):
        sim = Simulator(bare_scenario(), record_trace=False)
        unicast = sim.unicasts[1]
        with pytest.raises(RadioUnavailable):
            unicast.send(99, b"data")


def test_stack_module_reads_no_channel_or_ledger_internals():
    """Layer separation: the stack sees only the driver contract surface."""
    source = pathlib.Path(motesim.stack.__file__).read_text()
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    forbidden = {"channel", "node", "engine", "motesim.channel",
                 "motesim.node", "motesim.engine", "EnergyLedger",
                 "MoteDevice"}
    assert not (imported & forbidden), imported & forbidden
    assert "EnergyLedger" not in source
    assert "rssi_at" not in source
