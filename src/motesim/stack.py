"""Layered networking stack: radio driver contract, single-hop unicast,
and the two reference applications (periodic sender, wake-up exchange).

Layering rule: nothing in this module touches channel or ledger internals.
Applications see exactly two surfaces: the radio driver contract below and
a small engine-provided services object (timers, wake/sleep requests, and
the wake-up burst to the scenario's target). They hear tx-done only from
the driver contract; the engine calls only ``start`` and ``on_radio_ready``
(a WuRX interrupt, like a timer wake, turns the radio on with the MCU). A
test asserts this module imports neither the channel nor the node
internals.

The unicast primitive is fire-and-forget: no ACKs, no retransmissions.
The link header is src(2B) + dst(2B) + seqno(2B), little-endian, version 1;
sequence numbers exist for delivery accounting only. A received frame is
filtered on its ``dst``, the header field the engine parses with ``HEADER``
when the frame goes on air, and only a frame handed up is decoded into a
message, a cheap named tuple; ``Unicast.send`` packs the header itself.
"""

import struct
from functools import partial
from typing import NamedTuple

from .errors import ContractViolation, PayloadTooLarge
from .frame import Frame
from .phy import RadioConfig

HEADER = struct.Struct("<HHH")  # src, dst, seqno
HEADER_BYTES = HEADER.size
MAX_SEQNO = 0xFFFF  # the header's 16-bit seqno: a sender's frames 1, 2, ...
HEADER_VERSION = 1
DEFAULT_MTU = 255


class UnicastMessage(NamedTuple):
    src: int
    dst: int
    seqno: int
    payload: bytes


def encode_message(msg: UnicastMessage) -> bytes:
    return HEADER.pack(msg.src, msg.dst, msg.seqno) + msg.payload


def decode_message(data: bytes) -> UnicastMessage | None:
    """Parse a link frame; None if too short to carry the header."""
    if len(data) < HEADER_BYTES:
        return None
    return UnicastMessage(*HEADER.unpack_from(data), data[HEADER_BYTES:])


class RadioDriver:
    """Radio abstraction contract every backend must satisfy.

    Rules (exercised by :mod:`motesim.contract_kit`):
      * ``configure`` is legal only while the radio is not transmitting or
        receiving;
      * every accepted ``send`` produces exactly one ``tx_done`` callback,
        and a ``send`` issued from inside that same callback is rejected;
      * ``send`` while off or busy raises instead of silently dropping.
    """

    def init(self) -> None:
        raise NotImplementedError

    def configure(self, config: RadioConfig) -> None:
        raise NotImplementedError

    def send(self, data: bytes):
        raise NotImplementedError

    def start_rx(self) -> None:
        raise NotImplementedError

    def stop_rx(self) -> None:
        raise NotImplementedError

    def channel_clear(self) -> bool:
        raise NotImplementedError

    def on(self) -> None:
        raise NotImplementedError

    def off(self) -> None:
        raise NotImplementedError

    def is_on(self) -> bool:
        raise NotImplementedError

    def is_ready(self) -> bool:
        """Radio powered and idle (not turning on, not tx, not rx)."""
        raise NotImplementedError

    def bind(self, rx_done=None, tx_done=None) -> None:
        """Register stack callbacks: rx_done(Frame), tx_done(handle)."""
        raise NotImplementedError


class Unicast:
    """Best-effort single-hop unicast over a :class:`RadioDriver`."""

    def __init__(self, driver: RadioDriver, local_address: int):
        self.driver = driver
        self.local_address = local_address
        self._seqno = 0
        self.overheard = 0
        self.on_message = None  # callback(UnicastMessage)
        driver.bind(rx_done=self._rx_done)

    def send(self, dst: int, payload: bytes) -> int:
        """Transmit ``payload`` to ``dst`` over the radio; returns the
        sequence number it sent."""
        if len(payload) > DEFAULT_MTU:
            raise PayloadTooLarge(
                f"payload {len(payload)} B exceeds MTU {DEFAULT_MTU} B")
        self._seqno += 1
        self.driver.send(
            HEADER.pack(self.local_address, dst, self._seqno) + payload)
        return self._seqno

    def _rx_done(self, frame: Frame) -> None:
        """Hand a received frame up, or count it as overheard when its
        ``dst`` is another node or it has no header. Only a frame handed up
        is decoded."""
        if frame.dst != self.local_address:
            self.overheard += 1
        elif self.on_message is not None:
            self.on_message(decode_message(frame.payload))


class Services:
    """Engine capabilities handed to applications.

    Keeps the stack decoupled from engine internals: applications can read
    the clock, set timers (``call_at`` returns a handle, which ``cancel``
    withdraws while pending), request sleep or a wake at a tick's
    radio-ready (``wake_at(tick_ns)``), emit the wake-up burst to the
    scenario's target (``send_burst()``) and ask whether a node is awake or
    past a held wake's tick (``target_awake(addr)``), and nothing else.
    """

    def __init__(self, now_ns, call_at, cancel, request_sleep, wake_at,
                 send_burst, target_awake, log):
        self.now_ns = now_ns
        self.call_at = call_at
        self.cancel = cancel
        self.request_sleep = request_sleep
        self.wake_at = wake_at
        self.send_burst = send_burst
        self.target_awake = target_awake
        self.log = log


class App:
    """Base of the applications. The engine calls every hook below on every
    application; each does nothing unless a subclass overrides it. An
    application that acts on tx-done binds its driver's ``tx_done``."""

    def start(self) -> None:
        """The run begins."""

    def on_radio_ready(self) -> None:
        """The node's radio has just reached standby."""


class PeriodicSenderApp(App):
    """Send a fixed payload to one destination every ``period_ns``.

    First transmission fires at t = period. Idle policy between sends is
    either "sleep" (mote: MCU and radio down, woken for each tick by a timer
    due at radio-ready, the moment to send, where it sets the next wake first)
    or "rx" (base station: radio permanently listening, from its first
    radio-ready on, sending at each tick's callback).
    """

    def __init__(self, unicast: Unicast, services: Services, dst: int,
                 payload_len: int, period_ns: int, idle_policy: str = "sleep"):
        if idle_policy not in ("sleep", "rx"):
            raise ContractViolation(f"unknown idle policy {idle_policy!r}")
        self.unicast = unicast
        self.services = services
        self.dst = dst
        self.payload = bytes(payload_len)
        self.period_ns = period_ns
        self.idle_policy = idle_policy
        self._tick_ns = period_ns  # a sleeping sender's next tick
        unicast.driver.bind(tx_done=self._tx_done)

    def start(self) -> None:
        if self.idle_policy == "sleep":
            self.services.wake_at(self._tick_ns)
        else:
            self.unicast.driver.on()
            self.services.call_at(self.period_ns, self.on_tick)

    def on_tick(self) -> None:  # a listening sender's: it sends from rx
        self.services.call_at(self.services.now_ns() + self.period_ns,
                              self.on_tick)
        self.unicast.send(self.dst, self.payload)

    def on_radio_ready(self) -> None:
        if self.idle_policy == "sleep":
            self._tick_ns += self.period_ns
            self.services.wake_at(self._tick_ns)
            self.unicast.send(self.dst, self.payload)
        else:
            self.unicast.driver.start_rx()

    def _tx_done(self, _handle) -> None:
        # only this app sends on this driver, so the frame is its own
        if self.idle_policy == "sleep":
            self.services.request_sleep()
        else:
            self.unicast.driver.start_rx()


class SinkApp(App):
    """Base-station behaviour: bring the radio up and listen forever."""

    def __init__(self, unicast: Unicast):
        self.unicast = unicast

    def start(self) -> None:
        self.unicast.driver.on()

    def on_radio_ready(self) -> None:
        self.unicast.driver.start_rx()


class WakeupInitiatorApp(App):
    """Wake a sleeping peer with an OOK burst, then unicast it a payload.

    The data is sent ``data_delay_ns`` after the burst starts: its airtime
    plus the peer's MCU wake-up and radio turn-on, mirroring a firmware
    protocol that hard-codes the peer's timing constants. If the peer did
    not raise its interrupt (out of wake range or address mismatch) the
    cycle is aborted and logged as a wake timeout.
    """

    def __init__(self, unicast: Unicast, services: Services, target: int,
                 payload_len: int, cycle_period_ns: int, cycles: int,
                 data_delay_ns: int):
        self.unicast = unicast
        self.services = services
        self.target = target
        self.payload = bytes(payload_len)
        self.cycle_period_ns = cycle_period_ns
        self.cycles = cycles
        self.data_delay_ns = data_delay_ns
        # (cycle, wub_start_ns, the seqno sent, or None on a wake timeout)
        self.exchanges = []

    def start(self) -> None:
        self.unicast.driver.on()
        self.services.call_at(self.cycle_period_ns, partial(self.on_cycle, 1))

    def on_cycle(self, cycle: int) -> None:
        start = self.services.now_ns()
        if cycle < self.cycles:
            self.services.call_at(start + self.cycle_period_ns,
                                  partial(self.on_cycle, cycle + 1))
        self.services.send_burst()
        self.services.call_at(start + self.data_delay_ns,
                              lambda: self.on_data_slot(cycle, start))

    def on_data_slot(self, cycle: int, wub_start_ns: int) -> None:
        seqno = None
        if self.services.target_awake(self.target):
            seqno = self.unicast.send(self.target, self.payload)
        else:
            self.services.log(f"wake-timeout: cycle {cycle} target "
                              f"{self.target} did not wake")
        self.exchanges.append((cycle, wub_start_ns, seqno))


class WakeupSleeperApp(App):
    """Peer side of the wake-up exchange: sleep until the WuRX interrupt,
    which brings the radio up with the MCU, listen for one payload, then
    linger briefly and go back to sleep.

    The node is built asleep, so ``start`` has nothing to do."""

    def __init__(self, unicast: Unicast, services: Services,
                 linger_ns: int, rx_timeout_ns: int):
        self.unicast = unicast
        self.services = services
        self.linger_ns = linger_ns
        self.rx_timeout_ns = rx_timeout_ns
        self.received = []
        self._timeout = None  # the handle of the armed rx timeout
        unicast.on_message = self.on_message

    def on_radio_ready(self) -> None:
        self.unicast.driver.start_rx()
        self._disarm()  # only the latest deadline acts
        self._timeout = self.services.call_at(
            self.services.now_ns() + self.rx_timeout_ns, self.on_rx_timeout)

    def on_message(self, msg: UnicastMessage) -> None:
        self.received.append((self.services.now_ns(), msg))
        self._disarm()
        self.services.call_at(self.services.now_ns() + self.linger_ns,
                              self.services.request_sleep)

    def on_rx_timeout(self) -> None:
        self._timeout = None
        self.services.request_sleep()

    def _disarm(self) -> None:
        if self._timeout is not None:
            self.services.cancel(self._timeout)
            self._timeout = None
