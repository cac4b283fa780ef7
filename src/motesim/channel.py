"""Shared-medium propagation: log-distance path loss, noise, capture model.

Links are modelled as log-distance path loss with optional lognormal
shadowing. Defaults are calibrated so a +14 dBm transmitter is received
at -120 dBm at 600 m (reference loss 31.2 dB at 1 m = free space at
868 MHz, exponent 3.70 for a gently hilly non-LOS route class).

``rssi_at`` computes one link from scratch and is the reference. Nodes
never move, so the engine caches each link's mean loss (``path_loss_db``)
and takes only the shadowing draws per frame or burst, all at once from
``shadowing_draws``, the one source of per-link deviates. That helper
takes the uniforms of one ``rng.gauss(0.0, sigma)`` per link in order and
leaves the RNG in the same state, but transforms a deviate only when it is
read, bit for bit as ``gauss`` would. So the engine's values and draw
order are those of ``rssi_at``, and a frame pays the Box-Muller step only
at the receivers that read its RSSI, through ``RssiOnRead``. Transmissions
and reception outcomes, built per frame and per decision, are named tuples,
and so are positions and channel parameters, checked when built.

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


class ShadowingDraws:
    """``n`` shadowing deviates whose uniforms are already drawn; a
    sequence that is indexed or iterated.

    Item ``i`` is ``random.Random.gauss``'s value for the same uniforms,
    with its float expressions: ``0.0 + z * sigma``, where ``z`` is the
    spare value carried in from an earlier call or the cosine or sine half
    of a uniform pair, ``cos(x2pi) * g2rad`` or ``sin(x2pi) * g2rad``.
    """

    __slots__ = ("_uniforms", "_sigma", "_spare", "_n")

    def __init__(self, uniforms, sigma: float, spare: float | None, n: int):
        self._uniforms = uniforms
        self._sigma = sigma
        self._spare = spare
        self._n = n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i: int) -> float:
        if not 0 <= i < self._n:
            raise IndexError("shadowing draw index out of range")
        if self._spare is not None:
            if i == 0:
                return 0.0 + self._spare * self._sigma
            i -= 1
        uniforms = self._uniforms
        x2pi = uniforms[i & ~1] * tau
        g2rad = sqrt(-2.0 * log(1.0 - uniforms[i | 1]))
        return 0.0 + (sin(x2pi) if i & 1 else cos(x2pi)) * g2rad * self._sigma


def shadowing_draws(rng: random.Random, sigma: float,
                    n: int) -> ShadowingDraws:
    """The deviates of ``[rng.gauss(0.0, sigma) for _ in range(n)]``, bit for
    bit, taken in order now and transformed on read.

    Takes now exactly the ``rng.random()`` values that ``n`` ``gauss`` calls
    would take and leaves ``rng.gauss_next`` as they would: a spare value
    pending from an earlier call is the first deviate, and when the count
    ends mid-pair the pair's second half is kept for the next call. Item
    ``i`` of the result does its Box-Muller step only when it is read.
    """
    if not n:  # takes nothing and keeps a pending spare for later
        return ShadowingDraws((), sigma, None, 0)
    spare = rng.gauss_next
    fresh = n - (spare is not None)
    uniform = rng.random
    uniforms = [uniform() for _ in range(fresh + (fresh & 1))]
    rng.gauss_next = (sin(uniforms[-2] * tau)
                      * sqrt(-2.0 * log(1.0 - uniforms[-1]))
                      if fresh & 1 else None)
    return ShadowingDraws(uniforms, sigma, spare, n)


class RssiOnRead(dict):
    """One frame's RSSI by receiver address; each entry is computed at its
    first read, as ``tx_power_dbm - (mean loss + shadowing draw)``.

    ``links`` maps every receiver, in ascending address order, to its
    index into ``draws`` and its mean path loss. Reading by key,
    iteration, ``len`` and ``in`` cover every receiver; the other dict
    methods see only the entries read so far.
    """

    __slots__ = ("_tx_power_dbm", "_links", "_draws")

    def __init__(self, tx_power_dbm: float, links: dict,
                 draws: ShadowingDraws):
        self._tx_power_dbm = tx_power_dbm
        self._links = links
        self._draws = draws

    def __missing__(self, rx_addr: int) -> float:
        index, loss = self._links[rx_addr]
        rssi = self[rx_addr] = self._tx_power_dbm - (loss + self._draws[index])
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
