"""OOK wake-up link model: timing, duty, sensitivity, addressing.

Wake-up frames are sent by the main transceiver in OOK mode: a 1-bit is a
full-amplitude carrier, a 0-bit is transmitter-off, so a burst's transmit
power scales with its duty, the share of 1-bits. A frame is an all-ones
preamble followed by an 8-bit address, so only the address's count of
1-bits matters, not their order. A burst is described by its target's wurx
block, ``node.WurxSpec``, checked when built.

Decoding is all-or-nothing at the sensitivity threshold (no bit-error
model): below the threshold the receiver never leaves listening; at or
above it, the decoder runs for the full frame and the interrupt line is
asserted only on an exact address match.

This module gives durations and the duty only. The node's energy ledger
charges the burst (at ``lora_tx`` power times the duty) and the decode (at
the ``wurx_decode`` power), which ends with the burst. The engine calls
``send_wub`` once per run, for the target's burst.
"""

from typing import NamedTuple

from .phy import NS_PER_S

ADDRESS_BITS = 8


def wub_airtime(spec) -> int:
    """The duration (preamble + address bits) of a burst to the
    ``node.WurxSpec`` ``spec``, in integer nanoseconds."""
    n_bits = spec.preamble_bits + ADDRESS_BITS
    return round(n_bits / spec.bit_rate_bps * NS_PER_S)


class WubEmission(NamedTuple):
    """A wake-up burst on the main radio: its target address, airtime and
    OOK duty."""

    address: int
    duration_ns: int
    duty: float


def send_wub(spec) -> WubEmission:
    """The burst that wakes the ``node.WurxSpec`` ``spec``: its duty is the
    preamble's and the address's 1-bits over all the frame's bits."""
    ones = spec.preamble_bits + bin(spec.address).count("1")
    return WubEmission(spec.address, wub_airtime(spec),
                       ones / (spec.preamble_bits + ADDRESS_BITS))


def receive_wub(spec, address: int, rssi_dbm: float) -> bool | None:
    """How a burst to ``address`` lands at the ``node.WurxSpec`` ``spec``:
    None below its sensitivity, else the interrupt flag, an exact address
    match; pure: the engine mutates."""
    if rssi_dbm < spec.sensitivity_dbm:
        return None
    return address == spec.address
