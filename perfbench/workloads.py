"""The benchmark's three workloads, run through motesim's public entry points.

Each workload makes its inputs from an input seed, runs the same calls the
CLI makes and writes CSV reports into a directory it is given. ``full`` is
the measured size; ``tiny`` is for the benchmark's own tests.
"""

from __future__ import annotations

import hashlib
import math
import random
from pathlib import Path

from motesim import engine, report
from motesim.channel import ChannelParams, Position
from motesim.phy import NS_PER_S
from motesim.scenario import (DEFAULT_SWEEP_DISTANCES_M, PAPER_RADIO,
                              AppSpec, NodeSpec, Scenario,
                              power_profile_scenario, range_point_scenario)

DENSE_RADIUS_M = 800.0
DENSE_SIGMA_DB = 4.0
DENSE_PERIOD_S = 10


class CoverageSweep:
    """The paper's coverage experiment as ``motesim range-sweep`` runs it."""

    record_trace = False  # range_sweep runs its points untraced

    def __init__(self, size: str):
        if size == "full":
            self.distances, self.packets = DEFAULT_SWEEP_DISTANCES_M, 360
        else:
            self.distances, self.packets = (50.0, 600.0), 5

    def scenarios(self, seed: int) -> list:
        # the same points range_sweep builds, one seed per distance
        return [range_point_scenario(distance_m=d, packets=self.packets,
                                     seed=seed + i)
                for i, d in enumerate(self.distances)]

    def run(self, seed: int, out_dir) -> tuple:
        rows, meta, metrics = engine.range_sweep(
            distances=self.distances, packets=self.packets, seed=seed)
        return metrics, report.emit_sweep(rows, meta, "csv", out_dir)


class PowerProfile:
    """The paper's wake-up micro-benchmark as ``motesim power-profile``."""

    record_trace = True

    def __init__(self, size: str):
        self.cycles = 1000 if size == "full" else 5

    def scenarios(self, seed: int) -> list:
        return [power_profile_scenario(cycles=self.cycles, seed=seed)]

    def run(self, seed: int, out_dir) -> tuple:
        metrics = engine.power_profile(cycles=self.cycles, seed=seed)
        return [metrics], report.emit(metrics, "csv", out_dir)


def dense_scenario(seed: int, motes: int, horizon_s: int) -> Scenario:
    """One base station and ``motes`` periodic senders placed uniformly at
    random within ``DENSE_RADIUS_M`` of it.

    Built directly rather than through ``scenario.from_dict``, because
    ``validate`` rejects a periodic app without ``src`` ("every mote
    sends"), which the engine supports.
    """
    rng = random.Random(seed)
    nodes = [NodeSpec(address=1, role="bs", position=Position())]
    for address in range(2, motes + 2):
        radius = DENSE_RADIUS_M * math.sqrt(rng.random())
        angle = 2.0 * math.pi * rng.random()
        nodes.append(NodeSpec(address=address, role="mote", position=Position(
            x=radius * math.cos(angle), y=radius * math.sin(angle))))
    return Scenario(
        horizon_ns=horizon_s * NS_PER_S, seed=seed, radio=PAPER_RADIO,
        channel=ChannelParams(shadowing_sigma_db=DENSE_SIGMA_DB),
        nodes=tuple(nodes),
        app=AppSpec(kind="periodic", dst=1, payload_len=16,
                    period_ns=DENSE_PERIOD_S * NS_PER_S))


class DensePeriodic:
    """N motes all sending to one base station, as ``motesim run`` would
    run the scenario if it could be loaded from a file."""

    record_trace = True

    def __init__(self, size: str):
        self.motes, self.horizon_s = (20, 1200) if size == "full" else (4, 60)

    def scenarios(self, seed: int) -> list:
        return [dense_scenario(seed, self.motes, self.horizon_s)]

    def run(self, seed: int, out_dir) -> tuple:
        metrics = engine.run(dense_scenario(seed, self.motes, self.horizon_s))
        return [metrics], report.emit(metrics, "csv", out_dir)


WORKLOADS = {"coverage-sweep": CoverageSweep, "power-profile": PowerProfile,
             "dense-periodic": DensePeriodic}
SIZES = ("full", "tiny")


def output_digest(paths) -> tuple:
    """(sha256 over every emitted file's name and bytes, total bytes)."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(Path(p) for p in paths):
        data = path.read_bytes()
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(data)
        total += len(data)
    return digest.hexdigest(), total


def invariant_errors(metrics_list) -> list:
    """Every node's dwell times sum to the horizon; delivered <= sent."""
    errors = []
    for metrics in metrics_list:
        for node in metrics.energy:
            if node.total_time_ns != metrics.horizon_ns:
                errors.append(f"node {node.address}: dwell {node.total_time_ns}"
                              f" ns != horizon {metrics.horizon_ns} ns")
        for (src, dst), stats in metrics.links.items():
            if stats.delivered > stats.sent:
                errors.append(f"link {src}->{dst}: delivered {stats.delivered}"
                              f" > sent {stats.sent}")
    return errors
