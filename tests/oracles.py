"""Independent oracles the test suite checks the implementation against.

These are deliberately written with different arithmetic (float math.ceil
instead of integer ceiling division, straight-line replay instead of an
event queue) so they can disagree with the package if either side is wrong.
"""

import math
import random

from motesim.channel import (ChannelParams, Position, decide_reception,
                             interferers_of, noise_floor_dbm, rssi_at)
from motesim.engine import run
from motesim.report import SweepRow
from motesim.scenario import (DEFAULT_SWEEP_DISTANCES_M, PAPER_RADIO,
                              range_point_scenario)

LINK_HEADER_BYTES = 6
THERMAL_NOISE_DBM_PER_HZ = -174.0


def oracle_symbol_count(sf, cr_denom, payload_len, explicit_header=True,
                        crc_on=True, ldro=False):
    """Datasheet payload-symbol formula, float version."""
    crc = 1 if crc_on else 0
    ih = 0 if explicit_header else 1
    de = 1 if ldro else 0
    term = math.ceil(
        (8 * payload_len - 4 * sf + 28 + 16 * crc - 20 * ih)
        / (4 * (sf - 2 * de))) * cr_denom
    return 8 + max(term, 0)


def oracle_airtime_s(sf, bw_hz, cr_denom, payload_len, preamble_symbols=8,
                     explicit_header=True, crc_on=True, ldro=False):
    t_sym = (2.0 ** sf) / bw_hz
    t_preamble = (preamble_symbols + 4.25) * t_sym
    n_payload = oracle_symbol_count(sf, cr_denom, payload_len,
                                    explicit_header, crc_on, ldro)
    return t_preamble + n_payload * t_sym


def oracle_noise_floor_dbm(bw_hz, noise_figure_db):
    return THERMAL_NOISE_DBM_PER_HZ + 10.0 * math.log10(bw_hz) + noise_figure_db


def snr_of(rssi_dbm, bandwidth_hz, noise_figure_db):
    """Signal-to-noise ratio of a received level against the package's
    noise floor."""
    return rssi_dbm - noise_floor_dbm(bandwidth_hz, noise_figure_db)


def wake_up_frame_bits(address, preamble_bits):
    """A wake-up frame's bits on air: an all-ones preamble, then the 8-bit
    address, most significant bit first."""
    return [1] * preamble_bits + [int(bit) for bit in format(address, "08b")]


def on_air(frame, start_ns, end_ns):
    """``frame``, put on the medium over [start_ns, end_ns)."""
    frame.start_ns, frame.end_ns = start_ns, end_ns
    return frame


def replay_delivered(scenario, table):
    """Straight-line prediction of the delivered-packet set for small
    periodic scenarios with shadowing disabled. The scenario must pass
    ``validate``, so each period exceeds its sender's cycle and every tick
    sends.

    Returns (sent, delivered) where both are sets of (src, dst, seqno).
    """
    app = scenario.app
    assert app.kind == "periodic"
    assert scenario.channel.shadowing_sigma_db == 0.0
    radio = scenario.radio
    airtime_ns = round(oracle_airtime_s(
        radio.spreading_factor, radio.bandwidth_hz, radio.coding_rate,
        app.payload_len + LINK_HEADER_BYTES, radio.preamble_symbols,
        radio.explicit_header, radio.crc_on,
        radio.low_data_rate_optimize) * 1e9)

    specs = {n.address: n for n in scenario.nodes}
    if app.src is not None:
        senders = [specs[app.src]]
    else:
        senders = [n for n in scenario.nodes if n.role == "mote"]

    def rssi(tx_spec, rx_spec):
        d = math.dist(
            (tx_spec.position.x, tx_spec.position.y, tx_spec.position.z),
            (rx_spec.position.x, rx_spec.position.y, rx_spec.position.z))
        loss = (scenario.channel.reference_loss_at_1m_db
                + 10.0 * scenario.channel.path_loss_exponent * math.log10(d))
        return radio.tx_power_dbm - loss

    transmissions = []
    sent = set()
    for spec in senders:
        assert spec.role == "mote", "replay oracle covers mote senders only"
        wake_ns = spec.mcu_wakeup_ns + spec.radio_turn_on_ns
        k = 1
        seqno = 0
        while k * app.period_ns <= scenario.horizon_ns:
            tick = k * app.period_ns
            k += 1
            start = tick + wake_ns
            if start > scenario.horizon_ns:
                break  # wake chain cannot complete inside the horizon
            seqno += 1
            transmissions.append(
                (spec.address, seqno, start, start + airtime_ns))
            sent.add((spec.address, app.dst, seqno))

    dst_spec = specs[app.dst]
    dst_listening_from = (dst_spec.radio_turn_on_ns
                          if dst_spec.role == "bs" else None)
    sensitivity = table.sensitivity(radio.spreading_factor, radio.bandwidth_hz)
    snr_floor = table.snr_floor(radio.spreading_factor)
    noise = oracle_noise_floor_dbm(radio.bandwidth_hz,
                                   scenario.channel.noise_figure_db)

    delivered = set()
    for (src, seqno, start, end) in transmissions:
        if end > scenario.horizon_ns:
            continue  # completion event falls past the horizon
        if dst_listening_from is None or dst_listening_from > start:
            continue
        if src == app.dst:
            continue
        level = rssi(specs[src], dst_spec)
        rivals = [rssi(specs[o_src], dst_spec)
                  for (o_src, _o_seq, o_start, o_end) in transmissions
                  if (o_src, _o_seq) != (src, seqno)
                  and o_start < end and start < o_end]
        if rivals and level - max(rivals) < \
                scenario.channel.capture_threshold_db:
            continue
        if level < sensitivity:
            continue
        if level - noise < snr_floor:
            continue
        delivered.add((src, app.dst, seqno))
    return sent, delivered


def reception_margin(cfg, rssi_dbm, snr_db, table):
    """The plain link-budget check for one frame with no rival: "ok" iff
    RSSI >= sensitivity(SF, BW) and SNR >= demod floor(SF), both inclusive;
    else the first gate that fails, "below-sensitivity" or "snr-floor"."""
    rssi_margin = rssi_dbm - table.sensitivity(
        cfg.spreading_factor, cfg.bandwidth_hz)
    snr_margin = snr_db - table.snr_floor(cfg.spreading_factor)
    if rssi_margin < 0:
        return "below-sensitivity"
    if snr_margin < 0:
        return "snr-floor"
    return "ok"


def strongest_rival(frame, rx_addr, frames):
    """The highest RSSI at ``rx_addr`` among the frames of ``frames`` that
    ``channel.interferers_of`` finds for ``frame``, leaving out the
    receiver's own, or None: the scan that the engine replaces with an
    index of the frames on air, built at a listener when a decision there
    first needs it and emptied when the frames on air change."""
    return max([r.rssi_by_rx[rx_addr]
                for r in interferers_of(frame, frames)
                if r.src != rx_addr], default=None)


def mean_rssi_dbm(distance_m, meta):
    """P̄(d): the tx power of a sweep with calibration ``meta`` less its
    log-distance loss at ``distance_m``, the mean RSSI there."""
    loss = (meta["reference_loss_at_1m_db"] + 10.0
            * meta["path_loss_exponent"] * math.log(distance_m, 10))
    return meta["tx_power_dbm"] - loss


def decode_threshold_dbm(sf, bandwidth_hz, noise_figure_db, table):
    """T: the least RSSI that passes both the sensitivity and the SNR gate,
    the greater of the sensitivity and the noise floor plus the SNR
    floor."""
    return max(table.sensitivity(sf, bandwidth_hz),
               oracle_noise_floor_dbm(bandwidth_hz, noise_figure_db)
               + table.snr_floor(sf))


def shadowed_pdr(distance_m, meta, table):
    """The lognormal shadowing model's chance that a lone frame at
    ``distance_m`` is decoded, and the chance that it is not, each computed
    on its own so neither loses digits to ``1 - p``.

    The frame is decoded iff P̄(d) + X >= T, with X ~ N(0, sigma**2) and T
    the greater of the sensitivity and the noise floor plus the SNR floor,
    so p(d) = erfc((T - P̄(d)) / (sigma * sqrt 2)) / 2 (Rappaport,
    *Wireless Communications*, 2nd ed., section 4.9). ``meta`` is a
    sweep's calibration, as ``range_sweep`` returns it, with sigma > 0.
    """
    threshold = decode_threshold_dbm(
        meta["spreading_factor"], meta["bandwidth_hz"],
        meta["noise_figure_db"], table)
    x = ((threshold - mean_rssi_dbm(distance_m, meta))
         / (meta["shadowing_sigma_db"] * math.sqrt(2.0)))
    return 0.5 * math.erfc(x), 0.5 * math.erfc(-x)


def capture_pdr(means_dbm, i, threshold_dbm, capture_db, sigma,
                steps=4_000):
    """The chance that frame ``i`` of frames that start and end together at
    one listener is decoded there, under i.i.d. N(0, sigma**2) shadowing
    of each frame's mean RSSI ``means_dbm[j]`` (LoRaSim's capture model:
    Bor et al., "Do LoRa Low-Power Wide-Area Networks Scale?", MSWiM 2016).

    Frame i is decoded iff R_i >= T and R_i - max over j != i of R_j >= c,
    so p_i = integral of phi(x) * [P_i + sigma x >= T] * product over
    j != i of Phi((P_i + sigma x - c - P_j) / sigma) dx. The midpoint rule
    integrates it from where the gate opens to 10 sigma above the mean.
    """
    mean = means_dbm[i]
    rivals = [m for j, m in enumerate(means_dbm) if j != i]
    low, high = max((threshold_dbm - mean) / sigma, -10.0), 10.0
    if low >= high:
        return 0.0
    width, scale = (high - low) / steps, sigma * math.sqrt(2.0)
    total = 0.0
    for step in range(steps):
        x = low + (step + 0.5) * width
        level = mean + sigma * x - capture_db  # the rivals must lie below
        term = math.exp(-0.5 * x * x)
        for rival in rivals:
            term *= 0.5 * math.erfc((rival - level) / scale)
        total += term
    return total * width / math.sqrt(2.0 * math.pi)


def binomial_acceptance(n, p, q, alpha):
    """The two-sided acceptance region [lo, hi] of a Binomial(n, p) count
    at level ``alpha``, ``q`` being 1 - p: the widest tails that each hold
    at most ``alpha / 2`` are cut off."""
    if p == 0.0:
        return 0, 0
    if q == 0.0:
        return n, n
    log_p, log_q = math.log(p), math.log(q)
    pmf = [math.exp(math.lgamma(n + 1) - math.lgamma(k + 1)
                    - math.lgamma(n - k + 1) + k * log_p + (n - k) * log_q)
           for k in range(n + 1)]
    lo, tail = 0, pmf[0]
    while tail <= alpha / 2:
        lo += 1
        tail += pmf[lo]
    hi, tail = n, pmf[n]
    while tail <= alpha / 2:
        hi -= 1
        tail += pmf[hi]
    return lo, hi


def resolve_concurrent(frames, table, capture_threshold_db=6.0):
    """Resolve a completed set of frames on air for every annotated receiver.

    The batch counterpart of the engine's incremental path: every frame is
    decided against the whole list at once, not against the medium's
    pruned on-air list. Returns {(rx_addr, frame_id): ReceptionOutcome}.
    """
    outcomes = {}
    for frame in frames:
        for rx_addr in frame.rssi_by_rx:
            if rx_addr == frame.src:
                continue
            outcomes[(rx_addr, frame.frame_id)] = decide_reception(
                frame, rx_addr, strongest_rival(frame, rx_addr, frames),
                table, capture_threshold_db)
    return outcomes


def reference_range_sweep(distances=DEFAULT_SWEEP_DISTANCES_M, packets=360,
                          period_s=10.0, payload_len=16, seed=1):
    """The unshadowed coverage sweep as one two-node run per distance, read
    from the base station's packet records: without shadowing the stations
    do not affect one another, so the engine's one run of every point must
    match this loop row for row. ``reference_shadowed_sweep`` is the
    reference under shadowing.

    Returns (rows, meta) as ``range_sweep`` does.
    """
    rows = []
    all_metrics = []
    for distance in distances:
        scenario = range_point_scenario(
            distance_m=distance, packets=packets, period_s=period_s,
            payload_len=payload_len, seed=seed)
        metrics = run(scenario, record_trace=False)
        stats = metrics.link(2, 1)
        rssi_values = [p.rssi_dbm for p in metrics.packets]
        snr_values = [p.snr_db for p in metrics.packets]
        rows.append(SweepRow(
            distance_m=distance,
            sent=stats.sent,
            delivered=stats.delivered,
            pdr=stats.pdr,
            rssi_dbm_mean=sum(rssi_values) / len(rssi_values)
            if rssi_values else float("nan"),
            snr_db_mean=sum(snr_values) / len(snr_values)
            if snr_values else float("nan"),
        ))
        all_metrics.append(metrics)
    meta = dict(all_metrics[0].calibration) if all_metrics else {}
    meta.update({"packets_per_distance": packets, "seed": seed,
                 "period_s": period_s, "payload_len": payload_len})
    return rows, meta


def reference_shadowed_sweep(distances, packets, table, seed=1,
                             shadowing_sigma_db=4.0):
    """The shadowed coverage sweep replayed without an event loop: the
    mote's ``packets`` frames in send order, each calling ``rssi_at`` over
    stations 1...N, one per distance, with one ``random.Random(seed)``.
    Each station decides every frame by the sensitivity and SNR gates
    alone, since the lone mote has no rival and the stations outlive the
    run.

    Returns the rows ``range_sweep`` must return.
    """
    params = ChannelParams(shadowing_sigma_db=shadowing_sigma_db)
    noise = oracle_noise_floor_dbm(PAPER_RADIO.bandwidth_hz,
                                   params.noise_figure_db)
    rng = random.Random(seed)
    heard = [[] for _ in distances]
    for _frame in range(packets):
        for levels, distance in zip(heard, distances):
            levels.append(rssi_at(PAPER_RADIO.tx_power_dbm,
                                  Position(x=distance), Position(), params,
                                  rng))
    rows = []
    for distance, levels in zip(distances, heard):
        snrs = [level - noise for level in levels]
        delivered = sum(reception_margin(PAPER_RADIO, level, snr, table)
                        == "ok" for level, snr in zip(levels, snrs))
        rows.append(SweepRow(distance, packets, delivered, delivered / packets,
                             sum(levels) / len(levels), sum(snrs) / len(snrs)))
    return rows


class ReferenceLedger:
    """``EnergyLedger`` with every accrual written out in full: both the
    spent and the harvested terms, harvest or not, in the order of the
    conservation identity consumed - harvested == initial - remaining.
    The charge that would take the battery to or below zero spends only
    what is left, the battery plus that dwell's harvest; from then on the
    ledger keeps dwell times only, so the identity holds to the floor."""

    def __init__(self, battery_j, harvest_w):
        self.time_ns = {}
        self.energy_j = {}
        self.battery_remaining_j = battery_j
        self.harvest_w = harvest_w
        self.consumed_j = 0.0
        self.harvested_j = 0.0
        self.depleted = False

    def accrue(self, label, power_w, dt_ns):
        if dt_ns == 0:
            return
        self.time_ns[label] = self.time_ns.get(label, 0) + dt_ns
        if self.depleted:
            return
        dt_s = dt_ns / 1e9
        spent = power_w * dt_s
        gained = self.harvest_w * dt_s
        after = self.battery_remaining_j + gained - spent
        if after <= 0.0:
            spent = self.battery_remaining_j + gained
            after = 0.0
            self.depleted = True
        self.energy_j[label] = self.energy_j.get(label, 0.0) + spent
        self.consumed_j += spent
        self.harvested_j += gained
        self.battery_remaining_j = after
