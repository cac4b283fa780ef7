"""Over-the-air frame record shared by the channel, stack and engine."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class Frame:
    """One LoRa packet as seen on the medium.

    ``src``/``dst``/``seqno`` are the parsed link-header fields (``dst`` is
    None for raw, headerless sends). ``length`` is the full on-air byte count
    (header + payload). ``noise_floor_dbm`` is the receive noise floor for
    the frame's bandwidth; ``rssi_by_rx`` maps every other node to its
    RSSI. Its shadowing draws are taken in order when the transmission
    starts, but an entry is computed at its first read
    (``channel.RssiOnRead``); without shadowing it is a filled dict. A
    receiver's SNR is taken where it is read, as
    ``rssi_by_rx[rx] - noise_floor_dbm``.
    """

    frame_id: int
    src: int
    dst: int | None
    seqno: int | None
    payload: bytes
    length: int
    airtime_ns: int
    spreading_factor: int
    bandwidth_hz: int
    frequency_hz: float
    tx_power_dbm: float
    noise_floor_dbm: float
    rssi_by_rx: dict = field(default_factory=dict)
