"""Shared-medium propagation: log-distance path loss, noise, capture model.

Links are modelled as log-distance path loss with optional lognormal
shadowing. Defaults are calibrated so a +14 dBm transmitter is received
at -120 dBm at 600 m (reference loss 31.2 dB at 1 m = free space at
868 MHz, exponent 3.70 for a gently hilly non-LOS route class).

``rssi_at`` computes one link from scratch and is the reference. Nodes
never move, so the engine caches each link's mean loss (``path_loss_db``)
and takes only the shadowing draws per frame or burst, all at once from
``shadowing_draws``. That helper returns bit for bit what one
``rng.gauss(0.0, sigma)`` per link returns and leaves the RNG in the same
state, so the engine's values and draw order are those of ``rssi_at``.

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
from dataclasses import dataclass
from math import cos, log, sin, sqrt, tau

from .errors import ConfigError, ZeroDistanceError
from .frame import Frame
from .phy import SensitivityTable

THERMAL_NOISE_DBM_PER_HZ = -174.0


@dataclass(frozen=True)
class Position:
    """Cartesian coordinates in meters."""

    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(v) for v in (self.x, self.y, self.z)):
            raise ConfigError("position coordinates must be finite")

    def distance_to(self, other: "Position") -> float:
        return math.dist((self.x, self.y, self.z), (other.x, other.y, other.z))


@dataclass(frozen=True)
class ChannelParams:
    path_loss_exponent: float = 3.70
    reference_loss_at_1m_db: float = 31.2
    shadowing_sigma_db: float = 0.0
    noise_figure_db: float = 6.0
    capture_threshold_db: float = 6.0

    def __post_init__(self):
        if not 1.5 <= self.path_loss_exponent <= 6.0:
            raise ConfigError(
                f"path_loss_exponent must be within [1.5, 6.0], "
                f"got {self.path_loss_exponent}")
        if self.shadowing_sigma_db < 0:
            raise ConfigError("shadowing_sigma_db must be >= 0")


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


def shadowing_draws(rng: random.Random, sigma: float, n: int) -> list:
    """``[rng.gauss(0.0, sigma) for _ in range(n)]``, bit for bit.

    ``random.Random.gauss`` with its Box-Muller step inlined: each pair of
    ``rng.random()`` values gives two normal deviates, and the second is
    kept in ``rng.gauss_next`` as ``gauss`` keeps it, so a spare value
    carries over between calls and to later ``gauss`` calls. The deviate is
    scaled as ``0.0 + z * sigma``, the float expression ``gauss`` uses.
    """
    uniform = rng.random
    spare = rng.gauss_next
    draws = []
    append = draws.append
    for _ in range(n):
        if spare is None:
            x2pi = uniform() * tau
            g2rad = sqrt(-2.0 * log(1.0 - uniform()))
            append(0.0 + cos(x2pi) * g2rad * sigma)
            spare = sin(x2pi) * g2rad
        else:
            append(0.0 + spare * sigma)
            spare = None
    rng.gauss_next = spare
    return draws


def noise_floor_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise integrated over the receive bandwidth plus NF."""
    if bandwidth_hz <= 0:
        raise ConfigError("bandwidth_hz must be positive")
    return (THERMAL_NOISE_DBM_PER_HZ
            + 10.0 * math.log10(bandwidth_hz) + noise_figure_db)


def snr_of(rssi_dbm: float, bandwidth_hz: float, noise_figure_db: float) -> float:
    """Signal-to-noise ratio of a received level against the noise floor."""
    return rssi_dbm - noise_floor_dbm(bandwidth_hz, noise_figure_db)


@dataclass(frozen=True)
class Transmission:
    """One frame occupying the medium over [start_ns, end_ns)."""

    frame: Frame
    start_ns: int
    end_ns: int


@dataclass(frozen=True)
class ReceptionOutcome:
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
    rivals = [r for r in interferers_of(tx, all_tx)
              if r.frame.src != rx_addr]
    if rivals:
        strongest = max(r.frame.rssi_by_rx[rx_addr] for r in rivals)
        if rssi - strongest < capture_threshold_db:
            return ReceptionOutcome("collision", rssi, snr,
                                    rssi_margin, snr_margin)
    if rssi_margin < 0:
        return ReceptionOutcome("below-sensitivity", rssi, snr,
                                rssi_margin, snr_margin)
    if snr_margin < 0:
        return ReceptionOutcome("snr-floor", rssi, snr,
                                rssi_margin, snr_margin)
    return ReceptionOutcome("ok", rssi, snr, rssi_margin, snr_margin)
