"""OOK wake-up link model: frame format, timing, sensitivity, addressing.

Wake-up frames are sent by the main transceiver in OOK mode: a 1-bit is a
full-amplitude carrier, a 0-bit is transmitter-off, so a burst's transmit
power scales with its duty, the share of 1-bits. The frame format is an
all-ones preamble followed by an 8-bit address, MSB first; both lengths
are configurable.

Decoding is all-or-nothing at the sensitivity threshold (no bit-error
model): below the threshold the receiver never leaves listening; at or
above it, the decoder runs for the full frame and the interrupt line is
asserted only on an exact address match.

This module gives durations and the duty only. The node's energy ledger
charges the burst (at ``lora_tx`` power times the duty) and the decode (at
the ``wurx_decode`` power) for the dwell the engine schedules. A frame, a
burst and an arrival's outcome are named tuples; the engine calls
``send_wub`` once per run, for the target's burst, and "busy" and "ignored"
are constants. The receiver's state, which the engine updates, is slotted;
its node's wurx block, ``node.WurxSpec``, checks itself when it is built.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from .errors import ConfigError, validated
from .phy import NS_PER_S

ADDRESS_BITS = 8


@validated
class WakeUpFrame(NamedTuple):
    """One wake-up frame's address and framing; checked when built."""

    address: int
    preamble_bits: int = 8
    bit_rate_bps: float = 1000.0

    def _check(self):
        if not 0 <= self.address <= 255:
            raise ConfigError(f"wake-up address must be 0..255, got {self.address}")
        if self.preamble_bits < 0:
            raise ConfigError("preamble_bits must be >= 0")
        if not 0 < self.bit_rate_bps <= 1000.0:
            raise ConfigError(
                f"bit_rate_bps must be in (0, 1000], got {self.bit_rate_bps}")

    def bits(self) -> tuple:
        """Concrete on-air bit sequence: all-ones preamble, address MSB first."""
        preamble = (1,) * self.preamble_bits
        address = tuple((self.address >> (ADDRESS_BITS - 1 - i)) & 1
                        for i in range(ADDRESS_BITS))
        return preamble + address


def wub_airtime(frame: WakeUpFrame) -> int:
    """Frame duration (preamble + address bits) in integer nanoseconds."""
    n_bits = frame.preamble_bits + ADDRESS_BITS
    return round(n_bits / frame.bit_rate_bps * NS_PER_S)


def ook_duty(bits) -> float:
    """Fraction of 1-bits; 0.0 for an empty sequence."""
    bits = tuple(bits)
    if not bits:
        return 0.0
    return sum(bits) / len(bits)


class WubEmission(NamedTuple):
    """Result of preparing a wake-up transmission on the main radio."""

    frame: WakeUpFrame
    duration_ns: int
    duty: float


def send_wub(target_address: int, *, preamble_bits: int = 8,
             bit_rate_bps: float = 1000.0) -> WubEmission:
    """The OOK wake-up frame for ``target_address`` with its airtime and
    duty; bad arguments raise ``ConfigError``."""
    frame = WakeUpFrame(target_address, preamble_bits, bit_rate_bps)
    return WubEmission(frame, wub_airtime(frame), ook_duty(frame.bits()))


class WurxMode(enum.Enum):
    LISTENING = "listening"
    DECODING = "decoding"


class WurxState:
    """Wake-up receiver: configured address, sensitivity, and the mode and
    counters the engine updates at every burst. The node's power table
    holds its decode power."""

    __slots__ = ("configured_address", "sensitivity_dbm", "mode",
                 "missed_while_decoding", "false_wakeups_rejected",
                 "interrupts_asserted")

    def __init__(self, configured_address: int, sensitivity_dbm: float = -50.0):
        self.configured_address = configured_address
        self.sensitivity_dbm = sensitivity_dbm
        self.mode = WurxMode.LISTENING
        self.missed_while_decoding = 0
        self.false_wakeups_rejected = 0
        self.interrupts_asserted = 0


class WurxOutcome(NamedTuple):
    """What a wake-up frame arrival does to a listening receiver.

    ``kind`` is "ignored" (below sensitivity), "busy" (decoder already
    running; arrival is missed) or "decoding". For "decoding" the receiver
    occupies the decoder for ``decode_time_ns``; ``interrupt`` says whether
    the line is asserted at the end of the frame.
    """

    kind: str
    decode_time_ns: int = 0
    interrupt: bool = False


BUSY = WurxOutcome("busy")
IGNORED = WurxOutcome("ignored")


def receive_wub(state: WurxState, frame: WakeUpFrame,
                rssi_dbm: float) -> WurxOutcome:
    """Decide how a wake-up frame lands; pure so the engine owns mutation."""
    if state.mode is WurxMode.DECODING:
        return BUSY
    if rssi_dbm < state.sensitivity_dbm:
        return IGNORED
    return WurxOutcome("decoding", wub_airtime(frame),
                       frame.address == state.configured_address)
