"""motesim benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload for about S seconds, one fresh worker process at a time
(see worker.py), checks every unit's outputs and prints a summary followed
by one JSON result line. With ``--trace 0`` the result holds the
end-to-end metrics, with ``--trace 1`` the per-layer metrics. The input
seed is N modulo INPUT_SEEDS, the number of seeds reference.json covers.
Timed metrics are host times rescaled to the reference host speed (see
calibrate.py); the summary also prints the raw host-time medians.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import REFERENCE_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
INPUT_SEEDS = 16
WORKLOADS = ("coverage-sweep", "power-profile", "dense-periodic")
MIN_UNITS = 3
MIN_SETUPS = 7
TIME_LIMIT_S = 170.0

LAYER_SPANS = (
    "engine.run_until", "engine.schedule", "engine.trace_hash",
    "channel.rssi_at", "channel.decide_reception", "channel.interferers_of",
    "phy.time_on_air", "phy.SensitivityTable.load_default",
    "node.MoteDevice.transition", "node.EnergyLedger.accrue",
    "wurx.send_wub", "wurx.receive_wub", "stack.Unicast.send",
    "stack.decode_message", "scenario.build", "report.emit",
)
# spans whose call count is not a per-layer metric of its own
UNCOUNTED_SPANS = ("engine.run_until", "engine.trace_hash",
                   "channel.interferers_of", "scenario.build",
                   "report.emit")


class WorkerFailed(Exception):
    pass


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, size: str):
        self.workload = workload
        self.seed = seed % INPUT_SEEDS
        self.size = size
        self.started = time.perf_counter()
        self.deadline = self.started + seconds
        self.attempted = 0
        self.failed = 0
        self.errors: list = []

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def worker(self, mode: str, run_id: int = 0) -> dict:
        """Run one worker to completion; return its JSON result."""
        argv = [sys.executable, str(HERE / "worker.py"), mode, self.workload,
                str(self.seed), self.size, str(run_id)]
        timeout = max(1.0, TIME_LIMIT_S - self.elapsed())
        try:
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired as exc:
            raise WorkerFailed(f"{mode} worker timed out after {timeout:.0f} s"
                               ) from exc
        if proc.returncode == 3:
            sys.stderr.write(proc.stderr)
            sys.exit(2)
        if proc.returncode != 0:
            raise WorkerFailed(f"{mode} worker exited with {proc.returncode}: "
                               f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def checked(self, mode: str, run_id: int = 0):
        """A unit that counts toward attempted/failed; None if it raised."""
        self.attempted += 1
        try:
            result = self.worker(mode, run_id)
        except WorkerFailed as exc:
            self.failed += 1
            self.errors.append(str(exc))
            return None
        if result["errors"]:
            self.failed += 1
            self.errors.extend(result["errors"])
        return result

    def room_for(self, unit_s: float) -> bool:
        return time.perf_counter() + unit_s <= self.deadline


def at_reference(seconds: float, result: dict) -> float:
    """``seconds`` measured in ``result``'s worker, at reference speed."""
    return seconds * REFERENCE_S / result["cal_s"]


def upper_percentile(values: list):
    """Highest whole percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    pct = 100 * (n - 10) // n
    cut = statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return pct, cut


def end_to_end(bench: Bench) -> dict:
    # the first set-up fills the bytecode cache and shows motesim imports
    bench.worker("setup")
    setups, units = [], []
    while True:
        setups.append(bench.worker("setup"))
        started = time.perf_counter()
        result = bench.checked("unit")
        if result is not None:
            units.append(result)
        cost = time.perf_counter() - started
        if bench.elapsed() > TIME_LIMIT_S / 2 or (
                bench.attempted >= MIN_UNITS and not bench.room_for(cost)):
            break
    while len(setups) < MIN_SETUPS:
        setups.append(bench.worker("setup"))
    if not units:
        raise WorkerFailed("no unit completed: " + "; ".join(bench.errors))
    walls = [at_reference(u["wall_s"], u) for u in units]
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "frames_per_s": (statistics.median(
            u["frames_sent"] / wall for u, wall in zip(units, walls)),
            "frames/s"),
        "setup_s": (statistics.median(
            at_reference(s["setup_s"], s) for s in setups), "s"),
        "peak_rss_mb": (statistics.median(u["peak_rss_mb"] for u in units),
                        "MB"),
    }
    print(f"{bench.workload}: {len(units)} units, {len(setups)} set-ups, "
          f"input seed {bench.seed}, size {bench.size}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<14} {value:14.6f} {unit}")
    upper = upper_percentile(walls)
    print(f"  wall_s samples n={len(walls)}, "
          + (f"p{upper[0]} {upper[1]:.6f} s" if upper
             else "too few for an upper percentile"))
    print(f"  host time, not rescaled: wall_s "
          f"{statistics.median(u['wall_s'] for u in units):.6f} s, setup_s "
          f"{statistics.median(s['setup_s'] for s in setups):.6f} s, "
          f"calibration {statistics.median(u['cal_s'] for u in units):.6f} s"
          f" (reference {REFERENCE_S} s)")
    print(f"  failed_ratio   {bench.failed / bench.attempted:14.6f} fraction "
          f"({bench.failed} of {bench.attempted})")
    return metrics


def per_layer(bench: Bench) -> dict:
    bench.worker("setup")
    sliced = bench.checked("sliced")
    plain = [sliced] if sliced is not None else []
    traced = []
    pair_s = 0.0
    while not traced or (bench.room_for(pair_s)
                         and bench.elapsed() < TIME_LIMIT_S / 3):
        started = time.perf_counter()
        if traced:
            result = bench.checked("unit")
            if result is not None:
                plain.append(result)
        result = bench.checked("traced", run_id=len(traced))
        if result is None:
            break
        traced.append(result)
        pair_s = time.perf_counter() - started
    if sliced is None or not traced:
        raise WorkerFailed("sliced or traced unit failed: "
                           + "; ".join(bench.errors))
    for result in plain + traced:
        if result["digest"] != traced[0]["digest"]:
            bench.failed += 1
            bench.errors.append("traced outputs differ from untraced ones")
            break
    untraced_s = statistics.median(at_reference(p["wall_s"], p)
                                   for p in plain)
    first = traced[0]
    metrics = {
        "engine.events": (first["events"], "count"),
        "engine.events_per_s": (first["events"] / untraced_s, "events/s"),
    }
    for span in LAYER_SPANS:
        calls = first["layers"].get(span, (0, 0.0))[0]
        self_s = statistics.median(
            at_reference(t["layers"].get(span, (0, 0.0))[1], t)
            for t in traced)
        if span not in UNCOUNTED_SPANS:
            metrics[f"{span}.calls"] = (calls, "count")
        metrics[f"{span}.self_s"] = (self_s, "s")
    first_slice = sliced["slice_s"][0] / max(1, sliced["slice_events"][0])
    last_slice = sliced["slice_s"][-1] / max(1, sliced["slice_events"][-1])
    metrics["engine.slice_growth"] = (
        last_slice / first_slice if first_slice else 0.0, "ratio")
    scanned = first["counters"].get("channel.interferers_of.scanned", 0)
    found = first["counters"].get("channel.interferers_of.found", 0)
    metrics["channel.interferers_of.scanned"] = (scanned, "count")
    metrics["channel.interferers_of.found"] = (found, "count")
    metrics["channel.interferers_of.hit_ratio"] = (
        found / scanned if scanned else 0.0, "fraction")
    metrics["report.bytes"] = (first["report_bytes"], "bytes")
    traced_s = statistics.median(at_reference(t["wall_s"], t)
                                 for t in traced)
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["sim.frames_sent"] = (first["frames_sent"], "frames")
    metrics["sim.frames_delivered"] = (first["frames_delivered"], "frames")
    print(f"{bench.workload}: {len(traced)} traced and {len(plain)} untraced "
          f"units, input seed {bench.seed}, size {bench.size}")
    layer_s = statistics.median(at_reference(t["layer_self_s_total"], t)
                                for t in traced)
    print(f"  traced wall_s {traced_s:.6f} s, layer self time {layer_s:.6f} s"
          f", slices (s/events): " + " ".join(
              f"{s:.3f}/{e}" for s, e in zip(sliced["slice_s"],
                                            sliced["slice_events"])))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:16.6f} {unit}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is for the benchmark's own tests")
    args = parser.parse_args(argv)
    bench = Bench(args.workload, args.seed, args.seconds, args.size)
    try:
        metrics = per_layer(bench) if args.trace else end_to_end(bench)
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for error in bench.errors:
        print(f"  error: {error}")
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
