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
the ``wurx_decode`` power), which ends with the burst. A frame, a burst and
an arrival's outcome are named tuples, the three outcomes shared constants;
the engine calls ``send_wub`` once per run, for the target's burst. A
receiver is its node's wurx block, ``node.WurxSpec``, checked when built.
"""

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


def wub_airtime(frame) -> int:
    """Frame duration (preamble + address bits) in integer nanoseconds; a
    ``node.WurxSpec`` has both fields it reads, as a ``WakeUpFrame`` does."""
    n_bits = frame.preamble_bits + ADDRESS_BITS
    return round(n_bits / frame.bit_rate_bps * NS_PER_S)


def ook_duty(bits: tuple) -> float:
    """Fraction of 1-bits; 0.0 for an empty sequence."""
    return sum(bits) / len(bits) if bits else 0.0


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


class WurxOutcome(NamedTuple):
    """What a wake-up frame arrival does to a listening receiver.

    ``kind`` is "ignored" (below sensitivity) or "decoding": the decoder
    runs until the burst ends, and ``interrupt`` says whether the line is
    asserted then.
    """

    kind: str
    interrupt: bool = False


IGNORED = WurxOutcome("ignored")
WAKE = WurxOutcome("decoding", True)
REJECT = WurxOutcome("decoding", False)


def receive_wub(wurx_spec, frame: WakeUpFrame, rssi_dbm: float) -> WurxOutcome:
    """How a frame lands at a ``node.WurxSpec``; pure: the engine mutates."""
    if rssi_dbm < wurx_spec.sensitivity_dbm:
        return IGNORED
    return WAKE if frame.address == wurx_spec.address else REJECT
