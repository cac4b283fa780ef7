"""Shared-medium propagation: log-distance path loss, noise, capture model.

Links are modelled as log-distance path loss with optional lognormal
shadowing. Defaults are calibrated so a +14 dBm transmitter is received
at -120 dBm at 600 m (reference loss 31.2 dB at 1 m = free space at
868 MHz, exponent 3.70 for a gently hilly non-LOS route class).

``rssi_at`` computes one link from scratch and is the reference. Nodes
never move, so the engine caches each link's mean loss (``path_loss_db``)
and, with shadowing, takes only the draws per frame or burst, all at once
in ``RssiOnRead``. It takes the uniforms of one ``rng.gauss(0.0, sigma)``
per link in order, in one ``getrandbits`` call, and leaves the RNG in the
same state, but transforms a deviate only when it is read, bit for bit as
``gauss`` would. So the engine's values and draw order are those of
``rssi_at``, and a frame pays the Box-Muller step only at the receivers
that read its RSSI. A frame carries its own airtime interval, and no
other record of a transmission exists. Reception outcomes, positions and
channel parameters are named tuples, the last two checked when built.

Concurrent-transmission handling uses the capture effect with a
strongest-single-interferer proxy: a frame is decodable among overlapping
same-frequency same-SF frames iff its RSSI exceeds the strongest frame
overlapping it by at least ``capture_threshold_db``. Different spreading
factors are treated as orthogonal. Both are stated desk-scale
simplifications rather than full interference summation.
"""

import math
import random
from math import cos, log, sin, sqrt, tau
from typing import NamedTuple

from .errors import ConfigError, ZeroDistanceError, validated
from .frame import Frame
from .phy import SensitivityTable

THERMAL_NOISE_DBM_PER_HZ = -174.0


@validated
class Position(NamedTuple):
    """Cartesian coordinates in meters."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def _check(self):
        if not all(math.isfinite(v) for v in self):
            raise ConfigError("position coordinates must be finite")

    def distance_to(self, other: "Position") -> float:
        return math.dist(self, other)


@validated
class ChannelParams(NamedTuple):
    path_loss_exponent: float = 3.70
    reference_loss_at_1m_db: float = 31.2
    shadowing_sigma_db: float = 0.0
    noise_figure_db: float = 6.0
    capture_threshold_db: float = 6.0

    def _check(self):
        if not 1.5 <= self.path_loss_exponent <= 6.0:
            raise ConfigError(
                f"path_loss_exponent must be within [1.5, 6.0], "
                f"got {self.path_loss_exponent}")
        if not 0 <= self.shadowing_sigma_db < math.inf:  # NaN fails too
            raise ConfigError("shadowing_sigma_db must be finite and >= 0")
        if self.shadowing_sigma_db > 30.0:  # outdoors it measures 2-12 dB
            raise ConfigError(f"shadowing_sigma_db must be <= 30.0, "
                              f"got {self.shadowing_sigma_db}")
        # a NaN or an infinity is left to the finiteness rule of every record
        for name, high in (("reference_loss_at_1m_db", 100.0),
                           ("noise_figure_db", 30.0),
                           ("capture_threshold_db", 30.0)):
            value = getattr(self, name)
            if math.isfinite(value) and not 0.0 <= value <= high:
                raise ConfigError(f"{name} must be within [0, {high:g}], "
                                  f"got {value}")


def path_loss_db(distance_m: float, params: ChannelParams) -> float:
    """Log-distance loss at ``distance_m`` (reference distance 1 m)."""
    if distance_m <= 0:
        raise ZeroDistanceError("path loss undefined at zero distance")
    return (params.reference_loss_at_1m_db
            + 10.0 * params.path_loss_exponent * math.log10(distance_m))


def rssi_at(tx_power_dbm: float, tx_pos: Position, rx_pos: Position,
            params: ChannelParams, rng: random.Random | None = None) -> float:
    """Received power for one link; deterministic unless shadowing is on.

    With ``shadowing_sigma_db > 0`` one Gaussian draw is taken from ``rng``
    per call, so identical seeds and call orders reproduce identical values.
    """
    d = tx_pos.distance_to(rx_pos)
    if d == 0:
        raise ZeroDistanceError("tx and rx positions coincide")
    loss = path_loss_db(d, params)
    if params.shadowing_sigma_db > 0:
        if rng is None:
            raise ConfigError("shadowing enabled but no RNG stream supplied")
        loss += rng.gauss(0.0, params.shadowing_sigma_db)
    return tx_power_dbm - loss


_PAIR_MASK = (1 << 128) - 1  # the four 32-bit words of two random() calls


def _uniform_pair(bits: int, pair: int) -> tuple:
    """Uniforms ``2 * pair`` and ``2 * pair + 1``, as ``random()`` does."""
    w = bits >> 128 * pair & _PAIR_MASK  # words a, b, c, d from the lowest
    u1 = (w >> 5 & 0x7FFFFFF) * 67108864.0 + (w >> 38 & 0x3FFFFFF)  # a, b
    u2 = (w >> 69 & 0x7FFFFFF) * 67108864.0 + (w >> 102 & 0x3FFFFFF)
    return u1 * 2.0 ** -53, u2 * 2.0 ** -53


class RssiOnRead(dict):
    """One shadowed frame's or burst's RSSI by receiver address; each entry
    is computed at its first read, as ``tx_power_dbm - (mean loss + draw)``.

    ``links`` maps every receiver, in ascending address order, to its
    index in that order and its mean path loss. The draws are those of
    ``[rng.gauss(0.0, sigma) for _ in links]``, bit for bit: the words of
    the ``rng.random()`` calls they would make are taken now, as the int of
    one ``rng.getrandbits`` call, first word least significant, and
    ``rng.gauss_next`` is left as they would leave it, so a spare value
    pending from an earlier call is the first draw, and a count that ends
    mid-pair keeps the pair's second half for the next call. Draw ``i``
    does its Box-Muller step only when read, with ``gauss``'s float
    expressions: ``0.0 + z * sigma``, where ``z`` is the spare or the
    cosine or sine half of a uniform pair. ``sigma`` must be positive.

    Reading by key, iteration, ``len`` and ``in`` cover every receiver;
    the other dict methods see only the entries read so far.
    """

    __slots__ = ("_tx_power_dbm", "_links", "_sigma", "_spare", "_bits")

    def __init__(self, tx_power_dbm: float, links: dict,
                 rng: random.Random, sigma: float):
        self._tx_power_dbm = tx_power_dbm
        self._links = links
        self._sigma = sigma
        # the draw slots are set, and read by __missing__, only when there
        # are draws; n = 0 takes nothing and keeps a pending spare
        if links:
            spare = self._spare = rng.gauss_next
            fresh = len(links) - (spare is not None)
            pairs = (fresh + 1) >> 1
            bits = self._bits = rng.getrandbits(128 * pairs)
            rng.gauss_next = None
            if fresh & 1:
                u1, u2 = _uniform_pair(bits, pairs - 1)
                rng.gauss_next = sin(u1 * tau) * sqrt(-2.0 * log(1.0 - u2))

    def __missing__(self, rx_addr: int) -> float:
        i, loss = self._links[rx_addr]
        if self._spare is not None:
            i -= 1
        if i < 0:
            z = self._spare
        else:
            u1, u2 = _uniform_pair(self._bits, i >> 1)
            x2pi = u1 * tau
            g2rad = sqrt(-2.0 * log(1.0 - u2))
            z = (sin(x2pi) if i & 1 else cos(x2pi)) * g2rad
        rssi = self[rx_addr] = self._tx_power_dbm - (
            loss + (0.0 + z * self._sigma))
        return rssi

    def __iter__(self):
        return iter(self._links)

    def __len__(self) -> int:
        return len(self._links)

    def __contains__(self, rx_addr) -> bool:
        return rx_addr in self._links


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise integrated over the receive bandwidth plus NF."""
    if bandwidth_hz <= 0:
        raise ConfigError("bandwidth_hz must be positive")
    return (THERMAL_NOISE_DBM_PER_HZ
            + 10.0 * math.log10(bandwidth_hz) + noise_figure_db)


class ReceptionOutcome(NamedTuple):
    cause: str  # "ok" | "collision" | "below-sensitivity" | "snr-floor"
    rssi_dbm: float
    snr_db: float
    rssi_margin_db: float
    snr_margin_db: float

    @property
    def decoded(self) -> bool:
        return self.cause == "ok"


def interferers_of(frame: Frame, frames: list) -> list:
    """Frames overlapping ``frame`` in time on the same channel and SF.

    ``frames`` is any list that holds every frame that may overlap
    ``frame``: the full history, or only the frames still on air.
    """
    return [o for o in frames
            if o.frame_id != frame.frame_id
            and o.frequency_hz == frame.frequency_hz
            and o.spreading_factor == frame.spreading_factor
            and o.start_ns < frame.end_ns and frame.start_ns < o.end_ns]


def decide_reception(frame: Frame, rx_addr: int,
                     strongest_rival_dbm: float | None,
                     table: SensitivityTable,
                     capture_threshold_db: float) -> ReceptionOutcome:
    """Per-frame, per-receiver decision: the one place the reception gates
    are applied.

    Collision is judged first (capture against the strongest interferer),
    then the sensitivity and SNR-floor gates of the captured frame.
    ``strongest_rival_dbm`` is the highest RSSI at ``rx_addr`` among the
    ``interferers_of(frame, ...)`` that the receiver did not send (the
    listening rule handles those), or None; the engine reads it from an
    index of the frames on air, strongest first, that a listener builds at
    its first such decision since the frames on air last changed.
    """
    rssi = frame.rssi_by_rx[rx_addr]
    snr = rssi - frame.noise_floor_dbm
    rssi_margin = rssi - table.sensitivity(frame.spreading_factor,
                                           frame.bandwidth_hz)
    snr_margin = snr - table.snr_floor(frame.spreading_factor)
    if (strongest_rival_dbm is not None
            and rssi - strongest_rival_dbm < capture_threshold_db):
        cause = "collision"
    elif rssi_margin < 0:
        cause = "below-sensitivity"
    elif snr_margin < 0:
        cause = "snr-floor"
    else:
        cause = "ok"
    return ReceptionOutcome(cause, rssi, snr, rssi_margin, snr_margin)
