"""Over-the-air frame record shared by the channel, stack and engine."""

from __future__ import annotations


class Frame:
    """One LoRa packet on the medium over [start_ns, end_ns): the one
    record of its transmission, which the engine and channel hold as is.

    ``src``/``dst``/``seqno`` are the parsed link-header fields (``dst`` is
    None for raw, headerless sends); the stack filters on ``dst`` and
    decodes only a frame addressed to it. ``payload`` is every byte on air,
    header included. ``noise_floor_dbm`` is the receive noise floor for
    the frame's bandwidth; ``rssi_by_rx`` maps every other node to its
    RSSI. Its shadowing draws, if any, are taken in order when the
    transmission starts, but an entry is computed at its first read
    (``channel.RssiOnRead``). A receiver's SNR is taken where it is read, as
    ``rssi_by_rx[rx] - noise_floor_dbm``. Slotted, since a slot is the
    cheapest read and the channel reads these at every decision.
    """

    __slots__ = ("frame_id", "src", "dst", "seqno", "payload",
                 "spreading_factor", "bandwidth_hz", "frequency_hz",
                 "noise_floor_dbm", "rssi_by_rx", "start_ns", "end_ns")

    def __init__(self, frame_id: int, src: int, dst: int | None,
                 seqno: int | None, payload: bytes, spreading_factor: int,
                 bandwidth_hz: int, frequency_hz: float,
                 noise_floor_dbm: float, rssi_by_rx: dict | None = None,
                 start_ns: int = 0, end_ns: int = 0):
        self.frame_id = frame_id
        self.src = src
        self.dst = dst
        self.seqno = seqno
        self.payload = payload
        self.spreading_factor = spreading_factor
        self.bandwidth_hz = bandwidth_hz
        self.frequency_hz = frequency_hz
        self.noise_floor_dbm = noise_floor_dbm
        self.rssi_by_rx = {} if rssi_by_rx is None else rssi_by_rx
        self.start_ns = start_ns
        self.end_ns = end_ns
