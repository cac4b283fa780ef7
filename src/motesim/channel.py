"""Shared-medium propagation: log-distance path loss, noise, capture model.

Links are modelled as log-distance path loss with optional lognormal
shadowing. Defaults are calibrated so a +14 dBm transmitter is received
at -120 dBm at 600 m (reference loss 31.2 dB at 1 m = free space at
868 MHz, exponent 3.70 for a gently hilly non-LOS route class).

``rssi_at`` computes one link from scratch and is the reference. Nodes
never move, so the engine caches each link's mean loss (``path_loss_db``)
and takes only the shadowing draws per frame or burst, all at once in
``RssiOnRead``, the one source of per-link RSSI. It takes the uniforms of
one ``rng.gauss(0.0, sigma)`` per link in order and leaves the RNG in the
same state, but transforms a deviate only when it is read, bit for bit as
``gauss`` would. So the engine's values and draw order are those of
``rssi_at``, and a frame pays the Box-Muller step only at the receivers
that read its RSSI. Transmissions and reception outcomes, built per frame
and per decision, are named tuples, and so are positions and channel
parameters, checked when built.

Concurrent-transmission handling uses the capture effect with a
strongest-single-interferer proxy: a frame is decodable among overlapping
same-frequency same-SF frames iff its RSSI exceeds the strongest frame
overlapping it by at least ``capture_threshold_db``. Different spreading
factors are treated as orthogonal. Both are stated desk-scale
simplifications rather than full interference summation.
"""

from __future__ import annotations

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


class RssiOnRead(dict):
    """One frame's or burst's RSSI by receiver address; each entry is
    computed at its first read, as ``tx_power_dbm - (mean loss + draw)``.

    ``links`` maps every receiver, in ascending address order, to its
    index in that order and its mean path loss. The draws are those of
    ``[rng.gauss(0.0, sigma) for _ in links]``, bit for bit: the
    ``rng.random()`` values they would take are taken now and
    ``rng.gauss_next`` is left as they would leave it, so a spare value
    pending from an earlier call is the first draw, and a count that ends
    mid-pair keeps the pair's second half for the next call. Draw ``i``
    does its Box-Muller step only when read, with ``gauss``'s float
    expressions: ``0.0 + z * sigma``, where ``z`` is the spare or the
    cosine or sine half of a uniform pair. With ``sigma`` 0 the RNG is not
    touched and each entry is ``tx_power_dbm - loss``.

    Reading by key, iteration, ``len`` and ``in`` cover every receiver;
    the other dict methods see only the entries read so far.
    """

    __slots__ = ("_tx_power_dbm", "_links", "_sigma", "_spare", "_uniforms")

    def __init__(self, tx_power_dbm: float, links: dict,
                 rng: random.Random, sigma: float):
        self._tx_power_dbm = tx_power_dbm
        self._links = links
        self._sigma = sigma
        # the draw slots are set, and read by __missing__, only when there
        # are draws; n = 0 takes nothing and keeps a pending spare
        if sigma > 0 and links:
            spare = self._spare = rng.gauss_next
            fresh = len(links) - (spare is not None)
            uniform = rng.random
            uniforms = self._uniforms = [
                uniform() for _ in range(fresh + (fresh & 1))]
            rng.gauss_next = (sin(uniforms[-2] * tau)
                              * sqrt(-2.0 * log(1.0 - uniforms[-1]))
                              if fresh & 1 else None)

    def __missing__(self, rx_addr: int) -> float:
        i, loss = self._links[rx_addr]
        if self._sigma > 0:
            if self._spare is not None:
                i -= 1
            if i < 0:
                z = self._spare
            else:
                uniforms = self._uniforms
                x2pi = uniforms[i & ~1] * tau
                g2rad = sqrt(-2.0 * log(1.0 - uniforms[i | 1]))
                z = (sin(x2pi) if i & 1 else cos(x2pi)) * g2rad
            loss += 0.0 + z * self._sigma
        rssi = self[rx_addr] = self._tx_power_dbm - loss
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


def snr_of(rssi_dbm: float, bandwidth_hz: float, noise_figure_db: float) -> float:
    """Signal-to-noise ratio of a received level against the noise floor."""
    return rssi_dbm - noise_floor_dbm(bandwidth_hz, noise_figure_db)


class Transmission(NamedTuple):
    """One frame occupying the medium over [start_ns, end_ns)."""

    frame: Frame
    start_ns: int
    end_ns: int


class ReceptionOutcome(NamedTuple):
    cause: str  # "ok" | "collision" | "below-sensitivity" | "snr-floor"
    rssi_dbm: float
    snr_db: float
    rssi_margin_db: float
    snr_margin_db: float

    @property
    def decoded(self) -> bool:
        return self.cause == "ok"


def interferers_of(tx: Transmission, all_tx: list) -> list:
    """Transmissions overlapping ``tx`` in time on the same channel and SF.

    ``all_tx`` is any list that holds every transmission that may overlap
    ``tx``: the full history, or only the frames still on air.
    """
    frame = tx.frame
    frame_id = frame.frame_id
    frequency_hz = frame.frequency_hz
    sf = frame.spreading_factor
    start_ns, end_ns = tx.start_ns, tx.end_ns
    rivals = []
    for o in all_tx:
        other = o.frame
        if (other.frame_id != frame_id and other.frequency_hz == frequency_hz
                and other.spreading_factor == sf
                and o.start_ns < end_ns and start_ns < o.end_ns):
            rivals.append(o)
    return rivals


def decide_reception(tx: Transmission, rx_addr: int, all_tx: list,
                     table: SensitivityTable,
                     capture_threshold_db: float) -> ReceptionOutcome:
    """Per-frame, per-receiver decision: the one place the reception gates
    are applied.

    Collision is judged first (capture against the strongest interferer),
    then the sensitivity and SNR-floor gates of the captured frame.
    ``all_tx`` is any list that holds every transmission that may overlap
    ``tx``: the full history of a batch of transmissions, or, as the engine
    passes it, only the frames still on air. Only the strongest rival
    counts, so the order of the list does not matter.
    """
    frame = tx.frame
    rssi = frame.rssi_by_rx[rx_addr]
    snr = rssi - frame.noise_floor_dbm
    rssi_margin = rssi - table.sensitivity(frame.spreading_factor,
                                           frame.bandwidth_hz)
    snr_margin = snr - table.snr_floor(frame.spreading_factor)
    # the receiver's own transmissions are handled by the half-duplex
    # listening rule one layer up, not as interference
    strongest = max([r.frame.rssi_by_rx[rx_addr]
                     for r in interferers_of(tx, all_tx)
                     if r.frame.src != rx_addr], default=None)
    if strongest is not None and rssi - strongest < capture_threshold_db:
        cause = "collision"
    elif rssi_margin < 0:
        cause = "below-sensitivity"
    elif snr_margin < 0:
        cause = "snr-floor"
    else:
        cause = "ok"
    return ReceptionOutcome(cause, rssi, snr, rssi_margin, snr_margin)
