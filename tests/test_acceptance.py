"""Acceptance suite: one test per release criterion, each at its stated
tolerance. The conftest hook prints a PASS/FAIL line per criterion after
the run."""

import random
import time

import pytest

from motesim import (Position, RadioConfig, Scenario, ScenarioError,
                     SensitivityTable, receive_wub, run, time_on_air)
from motesim.engine import power_profile, range_sweep
from motesim.phy import payload_symbol_count
from motesim.report import emit
from motesim import ChannelParams
from motesim.scenario import (AppSpec, NodeSpec, WurxSpec,
                              range_point_scenario)
from motesim.stack import HEADER_BYTES
from oracles import oracle_airtime_s, oracle_symbol_count, replay_delivered

TABLE = SensitivityTable.load_default()


def test_criterion_1_power_mode_reproduction():
    """Modal powers exact (1.83 uW / 284 uW / 240 mW / 50 mW) and ledger
    energies equal to analytic power x time products within 1e-9 relative;
    the whole profile completes in under 5 s."""
    started = time.perf_counter()
    cycles = 10
    metrics = power_profile(cycles=cycles, cycle_period_s=1.0,
                            payload_len=16, linger_ms=10.0)
    elapsed = time.perf_counter() - started
    sleeper = next(r for r in metrics.energy if r.address == 2)
    rows = {row[0]: row for row in sleeper.rows}

    # instantaneous modal powers: exact equality with the configured defaults
    assert rows["sleep"][1] == 1.83e-6
    assert rows["wurx_decode"][1] == 284e-6
    assert rows["lora_tx"][1] == 0.240
    assert rows["lora_rx"][1] == 0.050

    # analytic per-mode dwell times for the sleeper (integer nanoseconds)
    data_airtime = time_on_air(RadioConfig(), 16 + HEADER_BYTES)
    wub_ns, wake_ns, turn_on_ns, linger_ns = (16_000_000, 7_000,
                                              1_000_000, 10_000_000)
    horizon = metrics.horizon_ns
    expected_time = {
        "wurx_decode": cycles * wub_ns,
        "mcu_active": cycles * (wake_ns + turn_on_ns),
        "lora_rx": cycles * (data_airtime + linger_ns),
    }
    expected_time["sleep"] = horizon - sum(expected_time.values())
    for label, want_ns in expected_time.items():
        assert rows[label][2] == want_ns, label

    # integrated energy == power x time at 1e-9 relative, per mode
    for label, (_l, power, t_ns, energy, _pct) in rows.items():
        if t_ns == 0:
            assert energy == 0.0
            continue
        analytic = power * (t_ns / 1e9)
        assert energy == pytest.approx(analytic, rel=1e-9), label

    assert elapsed < 5.0


def test_criterion_2_coverage_reproduction():
    """600 m: PDR >= 0.95 over 360 packets with mean RSSI within 1 dB of
    -120 dBm; any point predicted below -140 dBm gives PDR = 0; a 10-point
    sweep finishes in under 30 s."""
    started = time.perf_counter()
    rows, _meta, _all = range_sweep(packets=360, shadowing_sigma_db=0.0)
    elapsed = time.perf_counter() - started
    assert len(rows) == 10
    by_distance = {row.distance_m: row for row in rows}

    anchor = by_distance[600.0]
    assert anchor.sent == 360
    assert anchor.pdr >= 0.95
    assert abs(anchor.rssi_dbm_mean - (-120.0)) <= 1.0

    far = by_distance[2500.0]
    assert far.rssi_dbm_mean < -140.0  # predicted below the floor
    assert far.pdr == 0.0

    near = by_distance[1.0]
    assert near.pdr == 1.0
    assert near.rssi_dbm_mean == pytest.approx(14.0 - 31.2, abs=1e-9)

    assert elapsed < 30.0


def test_criterion_3_airtime_oracle():
    """Symbol counts bit-exact against the independent datasheet-formula
    oracle over >= 1e4 random tuples; the SF12/500 kHz/4-6/16 B point is
    exactly 313.344 ms."""
    assert time_on_air(RadioConfig(), 16) == 313_344_000

    rng = random.Random(0xACCE)
    checked = 0
    while checked < 10_000:
        sf = rng.randint(6, 12)
        bw = rng.choice((125_000, 250_000, 500_000))
        cr = rng.randint(5, 8)
        payload = rng.randint(0, 255)
        eh = rng.random() < 0.85
        crc = rng.random() < 0.85
        ldro = rng.random() < 0.25
        cfg = RadioConfig(spreading_factor=sf, bandwidth_hz=bw,
                          coding_rate=cr, explicit_header=eh, crc_on=crc,
                          low_data_rate_optimize=ldro)
        assert payload_symbol_count(cfg, payload) == oracle_symbol_count(
            sf, cr, payload, eh, crc, ldro)
        oracle_ns = oracle_airtime_s(sf, bw, cr, payload, 8, eh, crc,
                                     ldro) * 1e9
        assert abs(time_on_air(cfg, payload) - oracle_ns) <= 1.0
        checked += 1


def test_criterion_4_selective_wakeup_exhaustive():
    """All 256x256 (configured, sent) address pairs: interrupt asserted iff
    the addresses match and RSSI >= -50 dBm; no decode, so no decode
    energy, below the sensitivity threshold: ``receive_wub`` gives the
    interrupt flag at or above it and None, no decode, below it."""
    above, below = -45.0, -55.0
    for configured in range(256):
        spec = WurxSpec(address=configured)
        for sent in range(256):
            assert receive_wub(spec, sent, above) is (configured == sent)
            assert receive_wub(spec, sent, below) is None
    # threshold itself is inclusive
    assert receive_wub(WurxSpec(address=7), 7, -50.0) is True
    assert receive_wub(WurxSpec(address=7), 8, -50.0) is False


def test_criterion_5_wakeup_latency_chain():
    """End-to-end exchange latency equals wake-up burst airtime + 7 us MCU
    wake + radio turn-on + data airtime, within one 1 ns grain."""
    metrics = power_profile(cycles=5)
    data_airtime = time_on_air(RadioConfig(), 16 + HEADER_BYTES)
    expected = 16_000_000 + 7_000 + 1_000_000 + data_airtime
    assert len(metrics.exchanges) == 5
    for exchange in metrics.exchanges:
        assert exchange.outcome == "completed"
        assert abs(exchange.latency_ns - expected) <= 1


def test_criterion_6_determinism_and_conservation(tmp_path):
    """Three identical runs emit byte-identical files; per-state times sum
    exactly to the horizon and energy balances close within 1e-9."""
    def one_run(out_dir):
        scenario = range_point_scenario(distance_m=400.0, packets=20,
                                        period_s=1.0, seed=99,
                                        shadowing_sigma_db=3.0)
        metrics = run(scenario)
        return metrics, emit(metrics, "csv", out_dir)

    blobs, all_metrics = [], []
    for i in range(3):
        metrics, paths = one_run(tmp_path / str(i))
        all_metrics.append(metrics)
        blobs.append(b"\x00".join(p.read_bytes() for p in sorted(paths)))
    assert blobs[0] == blobs[1] == blobs[2]
    assert len({m.trace_hash for m in all_metrics}) == 1

    for metrics in all_metrics:
        for report in metrics.energy:
            assert report.total_time_ns == metrics.horizon_ns  # exact
            total = sum(row[3] for row in report.rows)
            assert total == pytest.approx(report.consumed_j, rel=1e-9)
            balance = (report.battery_initial_j - report.battery_remaining_j
                       + report.harvested_j)
            assert balance == pytest.approx(report.consumed_j, rel=1e-9)


def test_criterion_7_small_instance_oracle_equivalence():
    """Engine delivered-packet sets equal the straight-line replay oracle
    exactly for generated <=3-node, <=10-packet scenarios. A generated
    period at or below a mote's send cycle (wake-up, radio turn-on and
    airtime) is rejected when the scenario is built instead."""
    rng = random.Random(0x07AC1E)
    rejected = 0
    for case in range(150):
        n_motes = rng.randint(1, 2)
        period_s = rng.uniform(0.5, 1.5)
        packets = rng.randint(1, 10)
        horizon_s = packets * period_s + rng.uniform(-0.2, 0.6)
        nodes = [NodeSpec(address=1, role="bs", position=Position())]
        for i in range(n_motes):
            nodes.append(NodeSpec(
                address=2 + i, role="mote",
                position=Position(x=rng.uniform(1.0, 2600.0),
                                  y=rng.uniform(0.0, 120.0)),
                radio_turn_on_ns=round(rng.uniform(0.5, 8.0) * 1e6)))
        fields = dict(
            horizon_ns=round(horizon_s * 1e9),
            seed=rng.randrange(2 ** 32),
            radio=RadioConfig(),
            channel=ChannelParams(),
            nodes=tuple(nodes),
            app=AppSpec(kind="periodic", src=None, dst=1,
                        payload_len=rng.randint(0, 48),
                        period_ns=round(period_s * 1e9)))
        app = fields["app"]
        airtime_ns = time_on_air(RadioConfig(), app.payload_len + HEADER_BYTES)
        if any(app.period_ns <= node.mcu_wakeup_ns + node.radio_turn_on_ns
               + airtime_ns for node in nodes[1:]):
            rejected += 1
            with pytest.raises(ScenarioError,
                               match="app.period_s must exceed"):
                Scenario(**fields)
            continue
        scenario = Scenario(**fields)
        metrics = run(scenario, record_trace=False)
        sent = {(p.src, p.dst, p.seqno) for p in metrics.packets}
        delivered = {(p.src, p.dst, p.seqno) for p in metrics.packets
                     if p.outcome == "delivered"}
        oracle_sent, oracle_delivered = replay_delivered(scenario, TABLE)
        assert sent == oracle_sent, f"case {case}"
        assert delivered == oracle_delivered, f"case {case}"
    assert rejected >= 1
