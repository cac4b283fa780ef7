"""Run metrics containers and CSV/text emission.

Records built once and never changed (packets, energy, exchanges, sweep
rows) are named tuples; the link counts and the run's metrics, filled in
after they are built, are slotted classes.

Emitted files are byte-deterministic: fixed column order, fixed float
formats, and headers that embed the scenario hash, seed, calibration
constants and format version. Wall-clock runtime is deliberately kept out
of the files so identical (scenario, seed) runs re-emit identical bytes.
"""

import math
from pathlib import Path
from typing import NamedTuple

from .errors import MotesimError

REPORT_FORMAT_VERSION = 1


class PacketRecord(NamedTuple):
    """One frame on a known link, built with its outcome: delivered |
    collision | below-sensitivity | snr-floor | not-listening | in-flight."""

    frame_id: int
    src: int
    dst: int
    seqno: int
    t_start_ns: int
    distance_m: float
    rssi_dbm: float
    snr_db: float
    outcome: str


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


def _header_lines(meta) -> list:
    pairs = " ".join(f"{k}={meta[k]}" for k in sorted(meta))
    return [f"# motesim report format={REPORT_FORMAT_VERSION}",
            f"# {pairs}"]


def _run_header(metrics: RunMetrics) -> list:
    return _header_lines({"scenario": metrics.scenario_hash,
                          "seed": metrics.seed, **metrics.calibration})


def _table(columns: str, rows, widths=None) -> list:
    """The comma-separated ``columns``, then one line per row of string
    cells: joined by commas, or right-aligned to ``widths`` and joined by
    spaces. A row may stop short of the last columns. ``rows`` may be a
    generator, so that a row's cells live only until its line is built."""
    if widths is None:
        return [columns] + [",".join(cells) for cells in rows]
    return [" ".join(f"{cell:>{width}}" for cell, width in zip(cells, widths))
            for part in ([columns.split(",")], rows) for cells in part]


def _write(path: Path, lines: list) -> Path:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise MotesimError(f"cannot write report file {path}: {exc}") from exc
    return path


# the columns of the tables that the CSV files and the text report share
_ENERGY_COLUMNS = "node,mode,power_w,time_s,energy_j,pct"
_EXCHANGE_COLUMNS = "cycle,wub_start_s,outcome,latency_s"


def _energy_rows(rep: NodeEnergyReport) -> list:
    return [[str(rep.address), label, _fmt_e(power), _fmt(t_ns / 1e9, 9),
             _fmt_e(e_j), _fmt(pct, 3)]
            for (label, power, t_ns, e_j, pct) in rep.rows]


def _exchange_line(ex: ExchangeRecord) -> str:
    """A cycle's CSV line, in one format operation; the text report splits
    it into its cells. An unknown latency is an empty field."""
    if ex.data_rx_ns is None:
        return "%d,%.9f,%s," % (ex.cycle, ex.wub_start_ns / 1e9, ex.outcome)
    return "%d,%.9f,%s,%.9f" % (ex.cycle, ex.wub_start_ns / 1e9, ex.outcome,
                                ex.latency_ns / 1e9)


def emit(metrics: RunMetrics, fmt: str, out_dir) -> list:
    """Write run results in the requested format; returns the paths."""
    out = Path(out_dir)
    if fmt == "text":
        return [_write(out / "report.txt", render_text(metrics))]
    if fmt != "csv":
        raise MotesimError(f"unknown report format {fmt!r}")
    tables = [  # a packet or exchange line is one format operation
        ("packets.csv",
         ["seqno,src,dst,t_start_s,distance_m,rssi_dbm,snr_db,outcome"] + [
             "%d,%d,%d,%.9f,%.3f,%.3f,%.3f,%s" % (
                 p.seqno, p.src, p.dst, p.t_start_ns / 1e9, p.distance_m,
                 p.rssi_dbm, p.snr_db, p.outcome) for p in metrics.packets]),
        ("links.csv", _table("src,dst,sent,delivered,pdr", (
            [str(src), str(dst), str(s.sent), str(s.delivered), _fmt(s.pdr)]
            for (src, dst), s in sorted(metrics.links.items())))),
        ("energy.csv", _table(_ENERGY_COLUMNS, (
            row for rep in metrics.energy for row in _energy_rows(rep)))),
    ]
    if metrics.exchanges:
        tables.append(("exchanges.csv", [_EXCHANGE_COLUMNS] + [
            _exchange_line(ex) for ex in metrics.exchanges]))
    head = _run_header(metrics)
    return [_write(out / name, head + lines) for name, lines in tables]


def render_text(metrics: RunMetrics) -> list:
    """Aligned text report; totals match the CSV columns exactly."""
    links = [[f"{src}->{dst}", str(s.sent), str(s.delivered), _fmt(s.pdr)]
             for (src, dst), s in sorted(metrics.links.items())]
    links.append(["total", str(metrics.total_sent()),
                  str(metrics.total_delivered())])
    energy = []
    for rep in metrics.energy:
        energy += _energy_rows(rep)
        energy.append([str(rep.address), "total", "",
                       _fmt(rep.total_time_ns / 1e9, 9),
                       _fmt_e(rep.consumed_j), ""])
    lines = (_run_header(metrics) + [""]
             + _table("link,sent,delivered,pdr", links, (12, 6, 9, 9))
             + [""] + _table(_ENERGY_COLUMNS, energy, (6, 12, 18, 16, 18, 8)))
    if metrics.exchanges:
        lines += [""] + _table(_EXCHANGE_COLUMNS, (
            _exchange_line(ex).split(",") for ex in metrics.exchanges),
            (6, 14, 14, 12))
    return lines


def emit_sweep(rows: list, meta: dict, fmt: str, out_dir) -> list:
    """Plot-ready sweep table: one row per distance."""
    out = Path(out_dir)
    if fmt == "csv":
        table = _table(
            "distance_m,sent,delivered,pdr,rssi_dbm_mean,snr_db_mean",
            [[_fmt(r.distance_m, 3), str(r.sent), str(r.delivered),
              _fmt(r.pdr), _fmt(r.rssi_dbm_mean, 3), _fmt(r.snr_db_mean, 3)]
             for r in rows])
        return [_write(out / "sweep.csv", _header_lines(meta) + table)]
    if fmt == "text":
        cells = [[_fmt(r.distance_m, 1), str(r.sent), str(r.delivered),
                  _fmt(r.pdr), "[{:.4f}, {:.4f}]".format(
                      *wilson_interval(r.delivered, r.sent)),
                  _fmt(r.rssi_dbm_mean, 2), _fmt(r.snr_db_mean, 2)]
                 for r in rows]
        cells.append(["total", str(sum(r.sent for r in rows)),
                      str(sum(r.delivered for r in rows))])
        table = _table("distance_m,sent,delivered,pdr,pdr_ci95,rssi_dbm,snr_db",
                       cells, (11, 6, 9, 9, 19, 10, 8))
        return [_write(out / "sweep.txt", _header_lines(meta) + [""] + table)]
    raise MotesimError(f"unknown report format {fmt!r}")
