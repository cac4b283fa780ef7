"""Run metrics containers and CSV/text emission.

The records the engine updates during a run are slotted classes; those
built once at its end (energy, exchanges, sweep rows) are named tuples.

Emitted files are byte-deterministic: fixed column order, fixed float
formats, and headers that embed the scenario hash, seed, calibration
constants and format version. Wall-clock runtime is deliberately kept out
of the files so identical (scenario, seed) runs re-emit identical bytes.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import NamedTuple

from .errors import MotesimError

REPORT_FORMAT_VERSION = 1


class PacketRecord:
    """One frame on a known link; ``outcome`` is delivered | collision |
    below-sensitivity | snr-floor | not-listening | duplicate | in-flight."""

    __slots__ = ("frame_id", "src", "dst", "seqno", "t_start_ns",
                 "distance_m", "rssi_dbm", "snr_db", "outcome")

    def __init__(self, frame_id: int, src: int, dst: int, seqno: int,
                 t_start_ns: int, distance_m: float, rssi_dbm: float,
                 snr_db: float, outcome: str):
        self.frame_id = frame_id
        self.src = src
        self.dst = dst
        self.seqno = seqno
        self.t_start_ns = t_start_ns
        self.distance_m = distance_m
        self.rssi_dbm = rssi_dbm
        self.snr_db = snr_db
        self.outcome = outcome


class LinkStats:
    __slots__ = ("sent", "delivered")

    def __init__(self, sent: int = 0, delivered: int = 0):
        self.sent = sent
        self.delivered = delivered

    @property
    def pdr(self) -> float:
        return self.delivered / self.sent if self.sent else 0.0


class NodeEnergyReport(NamedTuple):
    address: int
    rows: list  # (label, power_w, time_ns, energy_j, pct)
    battery_initial_j: float
    battery_remaining_j: float
    consumed_j: float
    harvested_j: float
    depleted: bool
    total_time_ns: int
    wurx_interrupts: int = 0
    wurx_false_rejected: int = 0
    wurx_missed: int = 0


class ExchangeRecord(NamedTuple):
    cycle: int
    wub_start_ns: int
    outcome: str  # completed | wake-timeout | data-lost
    data_rx_ns: int | None = None

    @property
    def latency_ns(self) -> int | None:
        if self.data_rx_ns is None:
            return None
        return self.data_rx_ns - self.wub_start_ns


class RunMetrics:
    __slots__ = ("scenario_hash", "seed", "horizon_ns", "calibration",
                 "packets", "links", "energy", "exchanges", "event_count",
                 "trace_hash", "wallclock_s")

    def __init__(self, scenario_hash: str, seed: int, horizon_ns: int,
                 calibration: dict, packets: list, event_count: int,
                 trace_hash: str, wallclock_s: float):
        self.scenario_hash = scenario_hash
        self.seed = seed
        self.horizon_ns = horizon_ns
        self.calibration = calibration
        self.packets = packets
        self.links = {}  # (src, dst) -> LinkStats, counted from the packets
        for packet in packets:
            stats = self.links.get((packet.src, packet.dst))
            if stats is None:
                stats = self.links[(packet.src, packet.dst)] = LinkStats()
            stats.sent += 1
            stats.delivered += packet.outcome == "delivered"
        self.energy = []  # NodeEnergyReport
        self.exchanges = []  # ExchangeRecord
        self.event_count = event_count
        self.trace_hash = trace_hash
        self.wallclock_s = wallclock_s

    def link(self, src: int, dst: int) -> LinkStats:
        return self.links.get((src, dst), LinkStats())

    def total_sent(self) -> int:
        return sum(s.sent for s in self.links.values())

    def total_delivered(self) -> int:
        return sum(s.delivered for s in self.links.values())


class SweepRow(NamedTuple):
    distance_m: float
    sent: int
    delivered: int
    pdr: float
    rssi_dbm_mean: float
    snr_db_mean: float


def wilson_interval(successes: int, trials: int, z: float = 1.96):
    """95% score interval for a binomial proportion; (0, 1) for no trials."""
    if trials == 0:
        return 0.0, 1.0
    p = successes / trials
    denom = 1 + z * z / trials
    centre = (p + z * z / (2 * trials)) / denom
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, centre - half), min(1.0, centre + half)


def _fmt(value, nd: int = 6) -> str:
    if value is None:
        return ""
    return f"{value:.{nd}f}"


def _fmt_e(value) -> str:
    return f"{value:.12e}"


def _header_lines(metrics_or_meta) -> list:
    if isinstance(metrics_or_meta, RunMetrics):
        meta = {"scenario": metrics_or_meta.scenario_hash,
                "seed": metrics_or_meta.seed,
                **metrics_or_meta.calibration}
    else:
        meta = dict(metrics_or_meta)
    pairs = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    return [f"# motesim report format={REPORT_FORMAT_VERSION}",
            f"# {pairs}"]


def _write(path: Path, lines: list) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise MotesimError(f"cannot write report file {path}: {exc}") from exc
    return path


def emit(metrics: RunMetrics, fmt: str, out_dir) -> list:
    """Write run results in the requested format; returns the paths."""
    out = Path(out_dir)
    if fmt == "csv":
        return _emit_csv(metrics, out)
    if fmt == "text":
        return [_write(out / "report.txt", render_text(metrics))]
    raise MotesimError(f"unknown report format {fmt!r}")


def _emit_csv(metrics: RunMetrics, out: Path) -> list:
    head = _header_lines(metrics)
    paths = []

    lines = head + ["seqno,src,dst,t_start_s,distance_m,rssi_dbm,snr_db,outcome"]
    for p in metrics.packets:
        lines.append(",".join([
            str(p.seqno), str(p.src), str(p.dst),
            _fmt(p.t_start_ns / 1e9, 9), _fmt(p.distance_m, 3),
            _fmt(p.rssi_dbm, 3), _fmt(p.snr_db, 3), p.outcome]))
    paths.append(_write(out / "packets.csv", lines))

    lines = head + ["src,dst,sent,delivered,pdr"]
    for (src, dst) in sorted(metrics.links):
        s = metrics.links[(src, dst)]
        lines.append(f"{src},{dst},{s.sent},{s.delivered},{_fmt(s.pdr)}")
    paths.append(_write(out / "links.csv", lines))

    lines = head + ["node,mode,power_w,time_s,energy_j,pct"]
    for rep in metrics.energy:
        for (label, power, t_ns, e_j, pct) in rep.rows:
            lines.append(",".join([
                str(rep.address), label, _fmt_e(power),
                _fmt(t_ns / 1e9, 9), _fmt_e(e_j), _fmt(pct, 3)]))
    paths.append(_write(out / "energy.csv", lines))

    if metrics.exchanges:
        lines = head + ["cycle,wub_start_s,outcome,latency_s"]
        for ex in metrics.exchanges:
            latency = None if ex.latency_ns is None else ex.latency_ns / 1e9
            lines.append(",".join([
                str(ex.cycle), _fmt(ex.wub_start_ns / 1e9, 9),
                ex.outcome, _fmt(latency, 9)]))
        paths.append(_write(out / "exchanges.csv", lines))
    return paths


def render_text(metrics: RunMetrics) -> list:
    """Aligned text report; totals match the CSV columns exactly."""
    lines = _header_lines(metrics)
    lines.append("")
    lines.append(f"{'link':>12} {'sent':>6} {'delivered':>9} {'pdr':>9}")
    for (src, dst) in sorted(metrics.links):
        s = metrics.links[(src, dst)]
        lines.append(f"{f'{src}->{dst}':>12} {s.sent:>6} {s.delivered:>9} "
                     f"{_fmt(s.pdr):>9}")
    lines.append(f"{'total':>12} {metrics.total_sent():>6} "
                 f"{metrics.total_delivered():>9}")
    lines.append("")
    lines.append(f"{'node':>6} {'mode':>12} {'power_w':>18} {'time_s':>16} "
                 f"{'energy_j':>18} {'pct':>8}")
    for rep in metrics.energy:
        for (label, power, t_ns, e_j, pct) in rep.rows:
            lines.append(f"{rep.address:>6} {label:>12} {_fmt_e(power):>18} "
                         f"{_fmt(t_ns / 1e9, 9):>16} {_fmt_e(e_j):>18} "
                         f"{_fmt(pct, 3):>8}")
        lines.append(f"{rep.address:>6} {'total':>12} {'':>18} "
                     f"{_fmt(rep.total_time_ns / 1e9, 9):>16} "
                     f"{_fmt_e(rep.consumed_j):>18} {'':>8}")
    if metrics.exchanges:
        lines.append("")
        lines.append(f"{'cycle':>6} {'wub_start_s':>14} {'outcome':>14} "
                     f"{'latency_s':>12}")
        for ex in metrics.exchanges:
            latency = "" if ex.latency_ns is None else _fmt(ex.latency_ns / 1e9, 9)
            lines.append(f"{ex.cycle:>6} {_fmt(ex.wub_start_ns / 1e9, 9):>14} "
                         f"{ex.outcome:>14} {latency:>12}")
    return lines


def emit_sweep(rows: list, meta: dict, fmt: str, out_dir) -> list:
    """Plot-ready sweep table: one row per distance."""
    out = Path(out_dir)
    if fmt == "csv":
        lines = _header_lines(meta)
        lines.append("distance_m,sent,delivered,pdr,rssi_dbm_mean,snr_db_mean")
        for r in rows:
            lines.append(",".join([
                _fmt(r.distance_m, 3), str(r.sent), str(r.delivered),
                _fmt(r.pdr), _fmt(r.rssi_dbm_mean, 3), _fmt(r.snr_db_mean, 3)]))
        return [_write(out / "sweep.csv", lines)]
    if fmt == "text":
        lines = _header_lines(meta)
        lines.append("")
        lines.append(f"{'distance_m':>11} {'sent':>6} {'delivered':>9} "
                     f"{'pdr':>9} {'pdr_ci95':>19} {'rssi_dbm':>10} "
                     f"{'snr_db':>8}")
        total_sent = total_delivered = 0
        for r in rows:
            lo, hi = wilson_interval(r.delivered, r.sent)
            total_sent += r.sent
            total_delivered += r.delivered
            lines.append(
                f"{_fmt(r.distance_m, 1):>11} {r.sent:>6} {r.delivered:>9} "
                f"{_fmt(r.pdr):>9} {f'[{lo:.4f}, {hi:.4f}]':>19} "
                f"{_fmt(r.rssi_dbm_mean, 2):>10} {_fmt(r.snr_db_mean, 2):>8}")
        lines.append(f"{'total':>11} {total_sent:>6} {total_delivered:>9}")
        return [_write(out / "sweep.txt", lines)]
    raise MotesimError(f"unknown report format {fmt!r}")
