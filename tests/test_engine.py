import hashlib
import math
import os
import pathlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motesim import (ChannelParams, IllegalTransition, MotesimError,
                     Position, RadioConfig, Scenario, ScenarioError,
                     SensitivityTable, run)
from motesim import channel, engine, node
from motesim import stack as stk
from motesim.channel import noise_floor_dbm
from motesim.engine import Simulator, power_profile, range_sweep
from motesim.node import EnergyLedger, MoteDevice
from motesim.phy import time_on_air
from motesim.report import (ExchangeRecord, PacketRecord, RunMetrics, _fmt,
                            emit, render_text)
from motesim.scenario import (DEFAULT_SWEEP_DISTANCES_M, PAPER_RADIO,
                              AppSpec, NodeSpec, WurxSpec, from_dict, load,
                              power_profile_scenario, range_point_scenario)
from oracles import (binomial_acceptance, capture_pdr, decode_threshold_dbm,
                     mean_rssi_dbm, reference_range_sweep,
                     reference_shadowed_sweep, replay_delivered,
                     resolve_concurrent, shadowed_pdr, strongest_rival)

TABLE = SensitivityTable.load_default()


def record_transmissions(sim):
    """Every frame ``sim`` puts on air from now on, in start order.

    Wraps the simulator's ``begin_transmission``, which the radio drivers
    call for each frame they send; the engine keeps no such log.
    """
    started = []
    begin = sim.begin_transmission

    def recording(device, data):
        frame = begin(device, data)
        assert sim._tx_by_id[frame.frame_id] is frame
        started.append(frame)
        return frame

    sim.begin_transmission = recording
    return started


class CountedIndexes(dict):
    """A simulator's rival indexes, counting each index built and its
    entries; the engine writes an index only by setting its listener's
    key, so every build passes here."""

    builds = entries = 0

    def __setitem__(self, rx_addr, rivals):
        self.builds += 1
        self.entries += len(rivals)
        super().__setitem__(rx_addr, rivals)


def two_node_scenario(distance_m=100.0, packets=3, period_s=1.0,
                      seed=1, sigma=0.0):
    return range_point_scenario(distance_m=distance_m, packets=packets,
                                period_s=period_s, seed=seed,
                                shadowing_sigma_db=sigma)


def multi_mote_scenario(positions, period_s=1.0, horizon_s=5.0, seed=1,
                        payload_len=16, turn_ons_ms=None, sigma=0.0):
    """BS at origin plus one mote per position, all periodic senders."""
    nodes = [NodeSpec(address=1, role="bs", position=Position())]
    turn_ons_ms = turn_ons_ms or [1.0] * len(positions)
    for i, (pos, turn_on) in enumerate(zip(positions, turn_ons_ms)):
        nodes.append(NodeSpec(address=2 + i, role="mote", position=pos,
                              radio_turn_on_ns=round(turn_on * 1e6)))
    return Scenario(
        horizon_ns=round(horizon_s * 1e9), seed=seed, radio=RadioConfig(),
        channel=ChannelParams(shadowing_sigma_db=sigma),
        nodes=tuple(nodes),
        app=AppSpec(kind="periodic", src=None, dst=1,
                    payload_len=payload_len,
                    period_ns=round(period_s * 1e9)))


def dense_scenario(horizon_s, seed=7):
    """Seven motes ticking together under 3 dB shadowing. Mixed turn-on
    times make frames overlap partly; equal ones make frames end at the
    same nanosecond."""
    positions = [Position(x=40.0), Position(x=-90.0, y=20.0),
                 Position(x=150.0), Position(y=300.0), Position(x=-450.0),
                 Position(x=-200.0, y=-150.0), Position(x=200.0, y=200.0)]
    return multi_mote_scenario(
        positions, period_s=1.0, horizon_s=horizon_s, seed=seed,
        turn_ons_ms=[1.0, 1.0, 60.0, 60.0, 200.0, 420.0, 420.0], sigma=3.0)


def harvest_depletion_scenario():
    """Harvesting nodes, two of which deplete: node 2 during a frame (it
    harvests less than it sends), so its next wake timer is dropped, and
    node 4 at its first wake step (its battery cannot cover one second of
    sleep), which stops there. The scenario file is its one source."""
    return load(pathlib.Path(__file__).resolve().parents[1] / "scenarios"
                / "harvest_depletion.yaml")


def add_periodic_senders(sim, dsts, period_ns, payload_len=16,
                         idle_policy="sleep"):
    """Give each node in ``dsts`` (address -> its dst) a periodic sender
    app on top of the scenario's own, as the engine would build it."""
    for address, dst in dsts.items():
        sim.apps[address] = stk.PeriodicSenderApp(
            sim.unicasts[address], sim._services_for(address), dst=dst,
            payload_len=payload_len, period_ns=period_ns,
            idle_policy=idle_policy)


def hundred_mote_scenario(seed=3, motes=100, horizon_s=120):
    """Base station 1 at the origin and ``motes`` motes placed uniformly at
    random within 800 m, all sending every 10 s under 4 dB shadowing."""
    rng = random.Random(seed)
    nodes = [NodeSpec(address=1, role="bs", position=Position())]
    for address in range(2, motes + 2):
        radius = 800.0 * math.sqrt(rng.random())
        angle = 2.0 * math.pi * rng.random()
        nodes.append(NodeSpec(address=address, role="mote", position=Position(
            x=radius * math.cos(angle), y=radius * math.sin(angle))))
    return Scenario(
        horizon_ns=horizon_s * 10 ** 9, seed=seed, radio=PAPER_RADIO,
        channel=ChannelParams(shadowing_sigma_db=4.0), nodes=tuple(nodes),
        app=AppSpec(kind="periodic", dst=1, payload_len=16,
                    period_ns=10 * 10 ** 9))


class TestBasicRuns:
    def test_two_node_perfect_channel_pdr_one(self):
        metrics = run(two_node_scenario())
        assert metrics.link(2, 1).pdr == 1.0
        assert metrics.link(2, 1).sent == 3

    def test_16_byte_payload_makes_22_byte_frame(self):
        sim = Simulator(two_node_scenario(packets=1), record_trace=False)
        started = record_transmissions(sim)
        sim.run()
        (frame,) = started
        assert len(frame.payload) == 16 + 6
        assert frame.end_ns - frame.start_ns == 362_496_000

    def test_tick_count_matches_horizon_over_period(self):
        # 360 ticks for a 3601 s horizon at 10 s period, each one's frame
        # sent: the last tick's, at 3600 s, goes on air in the last second
        scenario = two_node_scenario(packets=5, period_s=10.0)
        scenario = Scenario(horizon_ns=3_601 * 10 ** 9, seed=1,
                            radio=scenario.radio, channel=scenario.channel,
                            nodes=scenario.nodes, app=scenario.app)
        metrics = Simulator(scenario, record_trace=False).run()
        assert metrics.link(2, 1).sent == 360

    def test_zero_ticks_when_horizon_below_period(self):
        scenario = Scenario(horizon_ns=9 * 10 ** 9, seed=1,
                            radio=RadioConfig(), channel=ChannelParams(),
                            nodes=two_node_scenario().nodes,
                            app=AppSpec(kind="periodic", src=2, dst=1,
                                        period_ns=10 * 10 ** 9))
        metrics = run(scenario)
        assert metrics.total_sent() == 0

    def test_code_built_scenario_is_checked_before_any_event(self):
        # a file fails this at load; built in code, it once raised
        # RadioUnavailable mid-run, at the bs sender's first tick. Now it
        # cannot be built, so no Simulator can run it.
        valid = Scenario(
            horizon_ns=5 * 10 ** 9, seed=1, radio=RadioConfig(),
            channel=ChannelParams(),
            nodes=(NodeSpec(address=1, role="bs", position=Position()),
                   NodeSpec(address=2, role="bs", position=Position(x=50.0),
                            radio_turn_on_ns=1_500_000_000)),
            app=AppSpec(kind="periodic", src=2, dst=1,
                        period_ns=2 * 10 ** 9))
        app = valid.app._replace(period_ns=10 ** 9)
        for build in (lambda: Scenario(*valid[:-1], app),
                      lambda: valid._replace(app=app)):
            with pytest.raises(ScenarioError, match="app.period_s must be "
                               "at least node 2's radio turn-on"):
                build()

    def test_ledger_times_partition_horizon(self):
        metrics = run(two_node_scenario(packets=4))
        for report in metrics.energy:
            assert report.total_time_ns == metrics.horizon_ns

    def test_energy_conservation(self):
        metrics = run(two_node_scenario(packets=4))
        for report in metrics.energy:
            total = sum(row[3] for row in report.rows)
            assert total == pytest.approx(report.consumed_j, rel=1e-12)
            assert (report.battery_initial_j - report.battery_remaining_j
                    + report.harvested_j) == pytest.approx(report.consumed_j,
                                                           rel=1e-9)


class TestDeterminism:
    def test_identical_runs_identical_traces(self):
        hashes = set()
        for _ in range(3):
            sim = Simulator(two_node_scenario(sigma=3.0, seed=77))
            sim.run()
            hashes.add(sim.trace_hash())
        assert len(hashes) == 1

    def test_identical_runs_identical_files(self, tmp_path):
        blobs = []
        for i in range(3):
            out = tmp_path / str(i)
            metrics = run(two_node_scenario(sigma=3.0, seed=77))
            paths = emit(metrics, "csv", out)
            blobs.append(b"".join(p.read_bytes() for p in sorted(paths)))
        assert blobs[0] == blobs[1] == blobs[2]

    def test_different_seed_changes_shadowed_run(self):
        a = Simulator(two_node_scenario(sigma=3.0, seed=1))
        b = Simulator(two_node_scenario(sigma=3.0, seed=2))
        ma, mb = a.run(), b.run()
        ra = [p.rssi_dbm for p in ma.packets]
        rb = [p.rssi_dbm for p in mb.packets]
        assert ra != rb

    def test_frames_starting_together_start_in_tick_order(self):
        # equal latency sums split differently: mote 3 wakes its MCU first,
        # but mote 2's wake timer was scheduled first, at the start and then
        # at its previous radio-ready, so its frame comes first
        nodes = (NodeSpec(address=1, role="bs", position=Position()),
                 NodeSpec(address=2, role="mote", position=Position(x=10.0),
                          mcu_wakeup_ns=507_000, radio_turn_on_ns=500_000),
                 NodeSpec(address=3, role="mote", position=Position(x=-10.0),
                          mcu_wakeup_ns=7_000, radio_turn_on_ns=1_000_000))
        scenario = Scenario(horizon_ns=2_500_000_000, seed=1,
                            radio=RadioConfig(), channel=ChannelParams(),
                            nodes=nodes,
                            app=AppSpec(kind="periodic", dst=1,
                                        period_ns=10 ** 9))
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        sim.run()
        assert [(frame.start_ns, frame.src) for frame in started] == [
            (1_001_007_000, 2), (1_001_007_000, 3),
            (2_001_007_000, 2), (2_001_007_000, 3)]


class TestBatchedTraceHash:
    """The trace is hashed in bounded chunks. Reading the hash mid-run
    hashes the lines kept so far, and must leave the bytes hashed, and so
    the final digest, those of an uninterrupted run."""

    # 350 wake-up cycles dispatch 2,101 events, more than two full chunks;
    # pinned on the engine that hashed one line per update, and again when
    # a burst became one event, when a WuRX interrupt became a wake, when
    # a cycle came to withdraw its rx timeout (then from 300 cycles) and
    # when the interrupt came to hold a timer wake, timer[wake] in place of
    # timer[radio_ready]
    DIGEST = "d2df79baaa18a0d56cf88451d968dda1202622ddecb40fe26ac51f7b1cdd6172"

    def test_mid_run_reads_leave_the_final_hash(self):
        scenario = power_profile_scenario(cycles=350)
        whole = run(scenario)
        assert whole.event_count > 2 * engine._TRACE_BATCH
        assert whole.trace_hash == self.DIGEST
        sim = Simulator(scenario)
        sim.start_apps()
        seen = []
        for k in range(1, 8):
            sim.run_until(scenario.horizon_ns * k // 7)
            seen.append(sim.trace_hash())
            assert sim.trace_hash() == seen[-1]  # nothing new to hash
        assert len(set(seen)) == len(seen)
        assert seen[-1] == self.DIGEST
        assert sim.event_count == whole.event_count

    def test_untraced_run_has_no_hash(self):
        scenario = power_profile_scenario(cycles=300)
        sim = Simulator(scenario, record_trace=False)
        sim.start_apps()
        sim.run_until(scenario.horizon_ns // 2)
        assert sim.trace_hash() == ""
        assert run(scenario, record_trace=False).trace_hash == ""


class TestCausality:
    def test_no_past_scheduling(self):
        sim = Simulator(two_node_scenario(), record_trace=False)
        sim.run_until(1_000_000)
        with pytest.raises(MotesimError):
            sim.schedule(999_999, engine.CALLBACK, 1, lambda: None)

    def test_unknown_event_kind_raises(self):
        """A misspelt kind is no event to drop quietly: its dispatch raises
        an error that names it, and the payload never runs."""
        sim = Simulator(power_profile_scenario(cycles=1), record_trace=False)
        called = []
        sim.schedule(5, "callbak", 1, lambda: called.append(True))
        with pytest.raises(MotesimError, match=r"unknown event kind 'callbak'"):
            sim.run_until(10)
        assert called == []

    def test_fuzzed_scenarios_dispatch_in_order(self):
        """Randomized small scenarios; the loop itself asserts strict
        (timestamp, sequence) order and schedule() rejects the past.

        Default depth keeps the suite fast while still monitoring well over
        1e5 dispatched events; set MOTESIM_CAUSALITY_SCENARIOS=100000 for
        the full-scale CI sweep. A sleeping sender's frame takes two
        events, its wake timer and its end, so horizons run from 1 to 8 s:
        about 12 events per scenario.
        """
        count = int(os.environ.get("MOTESIM_CAUSALITY_SCENARIOS", "10000"))
        rng = random.Random(0xCA05)
        dispatched = 0
        for _ in range(count):
            n_motes = rng.randint(1, 2)
            positions = [Position(x=rng.uniform(1.0, 2000.0),
                                  y=rng.uniform(0.0, 50.0))
                         for _ in range(n_motes)]
            period = rng.uniform(0.45, 2.0)
            scenario = multi_mote_scenario(
                positions, period_s=period,
                horizon_s=rng.uniform(1.0, 8.0),
                seed=rng.randrange(2 ** 32),
                turn_ons_ms=[rng.uniform(0.5, 5.0) for _ in range(n_motes)])
            sim = Simulator(scenario, record_trace=False)
            sim.run()
            dispatched += sim.event_count
        assert dispatched >= 10 * count


class TestReplayOracleEquivalence:
    def engine_sets(self, scenario):
        metrics = run(scenario, record_trace=False)
        sent = {(p.src, p.dst, p.seqno) for p in metrics.packets}
        delivered = {(p.src, p.dst, p.seqno) for p in metrics.packets
                     if p.outcome == "delivered"}
        return sent, delivered

    def test_single_mote_cases(self):
        for distance in (1.0, 600.0, 1200.0, 2500.0):
            scenario = multi_mote_scenario([Position(x=distance)],
                                           period_s=0.8, horizon_s=6.0)
            assert self.engine_sets(scenario) == replay_delivered(scenario,
                                                                  TABLE)

    def test_equal_distance_motes_always_collide(self):
        scenario = multi_mote_scenario(
            [Position(x=100.0), Position(x=-100.0)], period_s=1.0,
            horizon_s=5.0)
        sent, delivered = self.engine_sets(scenario)
        oracle_sent, oracle_delivered = replay_delivered(scenario, TABLE)
        assert (sent, delivered) == (oracle_sent, oracle_delivered)
        assert delivered == set()  # symmetric tie can never capture

    def test_capture_margin_lets_closer_mote_win(self):
        scenario = multi_mote_scenario(
            [Position(x=50.0), Position(x=400.0)], period_s=1.0,
            horizon_s=5.0)
        sent, delivered = self.engine_sets(scenario)
        assert delivered == {(2, 1, k) for k in range(1, 5)}
        assert (sent, delivered) == replay_delivered(scenario, TABLE)

    def test_randomized_small_scenarios(self):
        rng = random.Random(0x5EED)
        for _ in range(200):
            n_motes = rng.randint(1, 2)
            positions = [Position(x=rng.uniform(1.0, 2600.0),
                                  y=rng.uniform(0.0, 100.0))
                         for _ in range(n_motes)]
            period = rng.uniform(0.5, 1.5)
            scenario = multi_mote_scenario(
                positions, period_s=period,
                horizon_s=rng.uniform(1.0, 8.0),
                seed=rng.randrange(2 ** 32),
                payload_len=rng.randint(0, 32),
                turn_ons_ms=[rng.uniform(0.5, 8.0) for _ in range(n_motes)])
            assert self.engine_sets(scenario) == replay_delivered(
                scenario, TABLE), scenario


class TestIncrementalMatchesBatchResolver:
    def test_engine_outcomes_equal_resolve_concurrent(self):
        scenario = multi_mote_scenario(
            [Position(x=50.0), Position(x=400.0)], period_s=1.0,
            horizon_s=4.0, turn_ons_ms=[1.0, 3.0])
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        metrics = sim.run()
        batch = resolve_concurrent(started, TABLE,
                                   scenario.channel.capture_threshold_db)
        for packet in metrics.packets:
            if packet.outcome in ("in-flight", "not-listening"):
                continue
            outcome = batch[(packet.dst, packet.frame_id)]
            expected = "delivered" if outcome.cause == "ok" else outcome.cause
            assert packet.outcome == expected

    def test_dense_shadowed_run_matches_and_on_air_stays_bounded(self):
        scenario = dense_scenario(horizon_s=30.0)
        senders = len(scenario.nodes) - 1
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        sim.start_apps()
        slices = 300
        for k in range(1, slices + 1):
            sim.run_until(scenario.horizon_ns * k // slices)
            assert len(sim._on_air) <= senders
        ends = [frame.end_ns for frame in started]
        assert len(set(ends)) < len(ends)  # some frames end together
        assert {"delivered", "collision"} <= {p.outcome for p in sim.packets}
        batch = resolve_concurrent(started, TABLE,
                                   scenario.channel.capture_threshold_db)
        for packet in sim.packets:
            if packet.outcome in ("in-flight", "not-listening"):
                continue
            outcome = batch[(packet.dst, packet.frame_id)]
            expected = "delivered" if outcome.cause == "ok" else outcome.cause
            assert packet.outcome == expected


    def test_listening_sender_and_several_base_stations(self):
        """Three listening base stations. Base station 1 is ``app.src``, so
        it leaves rx for each of its frames and re-enters it while the
        motes' frames are on air; base station 3 first enters rx after the
        first frames have started. Each mote sends to one of them."""
        nodes = (
            NodeSpec(address=1, role="bs", position=Position()),
            NodeSpec(address=2, role="bs", position=Position(x=300.0)),
            NodeSpec(address=3, role="bs", position=Position(y=-250.0),
                     radio_turn_on_ns=1_150_000_000),
        ) + tuple(
            NodeSpec(address=4 + k, role="mote", position=pos,
                     radio_turn_on_ns=turn_on_ms * 1_000_000)
            for k, (pos, turn_on_ms) in enumerate([
                (Position(x=40.0), 1), (Position(x=150.0, y=60.0), 40),
                (Position(y=-90.0), 150), (Position(x=-30.0), 320),
                (Position(x=260.0, y=-30.0), 450),
                (Position(x=-60.0, y=20.0), 600)]))
        scenario = Scenario(
            horizon_ns=8 * 10 ** 9, seed=13, radio=RadioConfig(),
            channel=ChannelParams(shadowing_sigma_db=3.0), nodes=nodes,
            app=AppSpec(kind="periodic", src=1, dst=2, payload_len=16,
                        period_ns=10 ** 9))
        sim = Simulator(scenario, record_trace=False)
        add_periodic_senders(sim, {4: 2, 5: 3, 6: 2, 7: 1, 8: 1, 9: 1},
                             10 ** 9)
        started = record_transmissions(sim)
        rivals_at_1 = {}
        decide = channel.decide_reception

        def recording(frame, rx_addr, strongest_rival_dbm, *rest):
            if rx_addr == 1:
                rivals_at_1[frame.frame_id] = strongest_rival_dbm
            return decide(frame, rx_addr, strongest_rival_dbm, *rest)

        with mock.patch.object(channel, "decide_reception", recording):
            metrics = sim.run()
        outcomes = {}
        for packet in metrics.packets:
            outcomes.setdefault(packet.src, []).append(packet.outcome)
        # mote 7's frames start while base station 1 sends, so they are
        # not decided there; they are the strongest rivals of mote 8's
        # frames, which start after it has re-entered rx
        assert set(outcomes[7]) == {"not-listening"}
        assert set(outcomes[8]) == {"collision"}
        by_src = {}
        for frame in started:
            by_src.setdefault(frame.src, []).append(frame)
        assert [rivals_at_1[frame.frame_id] for frame in by_src[8]] == [
            frame.rssi_by_rx[1] for frame in by_src[7]]
        assert outcomes[5][0] == "not-listening"
        assert set(outcomes[5][1:]) == {"collision"}
        batch = resolve_concurrent(started, TABLE,
                                   scenario.channel.capture_threshold_db)
        compared = 0
        for packet in metrics.packets:
            if packet.outcome in ("in-flight", "not-listening"):
                continue
            outcome = batch[(packet.dst, packet.frame_id)]
            expected = "delivered" if outcome.cause == "ok" else outcome.cause
            assert packet.outcome == expected
            compared += 1
        assert compared >= 30

    def test_on_air_list_follows_the_earliest_undecided_start(self):
        """After every decided frame the on-air list holds exactly the
        started transmissions ending after the floor: the earliest start of
        the frames still undecided, or now when none is."""
        sim = Simulator(dense_scenario(horizon_s=30.0), record_trace=False)
        started = record_transmissions(sim)
        finish = sim._finish_tx
        checked = []

        def checking(frame_id):
            finish(frame_id)
            floor = min((frame.start_ns
                         for frame in sim._tx_by_id.values()),
                        default=sim.now)
            assert sim._on_air == [frame for frame in started
                                   if frame.end_ns > floor]
            checked.append(len(sim._tx_by_id))

        sim._finish_tx = checking
        sim.run()
        assert len(checked) > 100
        assert max(checked) >= 2  # several frames undecided at once

    def test_records_built_when_decided_and_kept_in_send_order(self):
        """Mote 2's 200 B frame starts first and mote 3's empty one later,
        but the empty one ends, and is decided, first."""
        nodes = (NodeSpec(address=1, role="bs", position=Position()),
                 NodeSpec(address=2, role="mote", position=Position(x=50.0)),
                 NodeSpec(address=3, role="mote", position=Position(x=-80.0),
                          radio_turn_on_ns=50_000_000))
        scenario = Scenario(
            horizon_ns=25 * 10 ** 9, seed=1, radio=RadioConfig(),
            channel=ChannelParams(), nodes=nodes, app=AppSpec(kind="none"))
        sim = Simulator(scenario, record_trace=False)
        add_periodic_senders(sim, {2: 1}, 10 ** 10, payload_len=200)
        add_periodic_senders(sim, {3: 1}, 10 ** 10, payload_len=0)
        started = record_transmissions(sim)
        finish = sim._finish_tx
        decided = []

        def recording(frame_id):
            finish(frame_id)
            decided.append([(p.frame_id, p.outcome) for p in sim.packets])

        sim._finish_tx = recording
        metrics = sim.run()
        assert [frame.src for frame in started] == [2, 3, 2, 3]
        # each record is built once its frame is decided, with its outcome
        assert decided[:2] == [[(2, "collision")],
                               [(2, "collision"), (1, "delivered")]]
        assert [p.frame_id for p in metrics.packets] == [1, 2, 3, 4]


class TestRivalIndex:
    """A listener's index of the frames on air, strongest first, is built
    when a decision there first needs it; it holds the frames on air at
    every read and gives the rival that a scan of the on-air list with
    ``interferers_of`` finds."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_index_equals_the_max_over_interferers_of(self, data):
        draw = data.draw
        # base stations, some of which enter rx only after the first frames
        # have started; the last one may send too, leaving rx and coming back
        bs_turn_ons_ms = draw(st.lists(st.sampled_from([1, 150, 1100, 1500]),
                                       min_size=1, max_size=3))
        bs_positions = [Position(), Position(x=35.0, y=-20.0),
                        Position(x=-25.0, y=45.0)]
        # mote positions on two circles around base station 1, so that
        # equal RSSIs occur there when shadowing is off
        spots = [Position(x=r * c, y=r * s) for r in (60.0, 250.0)
                 for c, s in ((1, 0), (0, 1), (-1, 0), (0, -1))]
        motes = draw(st.lists(st.integers(0, len(spots) - 1), min_size=2,
                              max_size=6, unique=True))
        mote_turn_ons_ms = [draw(st.sampled_from([1, 40, 120, 300, 450]))
                            for _ in motes]
        nodes = tuple(
            NodeSpec(address=1 + k, role="bs", position=bs_positions[k],
                     radio_turn_on_ns=turn_on * 1_000_000)
            for k, turn_on in enumerate(bs_turn_ons_ms))
        first_mote = len(nodes) + 1
        nodes += tuple(
            NodeSpec(address=first_mote + k, role="mote",
                     position=spots[spot],
                     radio_turn_on_ns=turn_on * 1_000_000)
            for k, (spot, turn_on) in enumerate(zip(motes,
                                                    mote_turn_ons_ms)))
        scenario = Scenario(
            horizon_ns=4 * 10 ** 9, seed=draw(st.integers(0, 2 ** 32)),
            radio=RadioConfig(spreading_factor=9, bandwidth_hz=125_000),
            channel=ChannelParams(shadowing_sigma_db=draw(
                st.sampled_from([0.0, 3.0]))),
            nodes=nodes,
            app=AppSpec(kind="periodic", dst=1, payload_len=16,
                        period_ns=10 ** 9))
        sim = Simulator(scenario, record_trace=False)
        # two spreading factors and two frequencies among the motes
        for address in range(first_mote, first_mote + len(motes)):
            driver = sim.drivers[address]
            driver.configure(driver.config._replace(
                spreading_factor=draw(st.sampled_from([9, 10])),
                frequency_hz=draw(st.sampled_from([868.1e6, 868.3e6]))))
        if (len(bs_turn_ons_ms) > 1 and bs_turn_ons_ms[-1] < 700
                and draw(st.booleans())):
            add_periodic_senders(sim, {len(bs_turn_ons_ms): 1}, 700_000_000,
                                 idle_policy="rx")
        decide = channel.decide_reception
        decisions = []

        def checking(frame, rx_addr, strongest_rival_dbm, *rest):
            on_air = sim._on_air
            assert strongest_rival_dbm == strongest_rival(frame, rx_addr,
                                                          on_air)
            # a lone frame reads no index; any other, the frames on air
            assert sim._rivals.get(rx_addr) == (sorted(
                (-o.rssi_by_rx[rx_addr], o.frame_id, o)
                for o in on_air if o.src != rx_addr)
                if len(on_air) >= 2 else None)
            decisions.append(strongest_rival_dbm)
            return decide(frame, rx_addr, strongest_rival_dbm, *rest)

        with mock.patch.object(channel, "decide_reception", checking):
            sim.run()
        assert decisions

    def test_lone_frames_are_not_indexed(self, monkeypatch):
        """The unshadowed sweep's mote is alone on air, so its ten
        listening stations build no index."""
        finish = Simulator._finish_tx
        listeners = []

        def checking(sim, frame_id):
            finish(sim, frame_id)
            assert sim._rivals == {}
            listeners.append(len(sim._listeners))

        monkeypatch.setattr(Simulator, "_finish_tx", checking)
        range_sweep(packets=5)
        assert listeners == [10] * 5

    def test_overlapping_frames_are_indexed(self):
        """Three motes tick together, so the base station's first decision
        of a tick indexes the three frames. The floor then rises without
        dropping one, so the other two decisions read that index, and the
        tick's last decision empties it with the medium."""
        sim = Simulator(multi_mote_scenario(
            [Position(x=50.0), Position(x=-80.0), Position(y=120.0)],
            horizon_s=3.5), record_trace=False)
        indexes = sim._rivals = CountedIndexes()
        deliver = sim._deliver
        index_sizes = []

        def sizing(frame):
            outcome = deliver(frame)
            index_sizes.append(len(indexes[1]))
            return outcome

        sim._deliver = sizing
        sim.run()
        assert index_sizes == [3] * 9
        assert (indexes.builds, indexes.entries) == (3, 9)
        assert indexes == {}

    def test_prune_to_one_frame_empties_the_indexes(self):
        """Station 3's frame goes on air at the nanosecond station 2's ends,
        before that one is decided, so the decision at station 1 indexes
        both; deciding the first drops it from the medium, which empties
        the index, and the one frame left is decided with none."""
        nodes = (NodeSpec(address=1, role="bs", position=Position()),
                 NodeSpec(address=2, role="bs", position=Position(x=50.0)),
                 NodeSpec(address=3, role="bs", position=Position(x=-80.0)))
        sim = Simulator(Scenario(
            horizon_ns=10 ** 9, seed=1, radio=RadioConfig(),
            channel=ChannelParams(), nodes=nodes, app=AppSpec(kind="none")),
            record_trace=False)
        started = record_transmissions(sim)
        begin = sim.begin_transmission
        indexes_after_begin = []

        def beginning(device, data):
            frame = begin(device, data)
            indexes_after_begin.append(dict(sim._rivals))
            return frame

        sim.begin_transmission = beginning
        sim.start_apps()
        sim.run_until(10 ** 8)  # every station is in rx
        end_ns = sim.now + time_on_air(sim.drivers[2].config, 20)
        # scheduled before the first frame's TX_END, so it dispatches first
        sim.schedule(end_ns, engine.CALLBACK, 3,
                     lambda: sim.drivers[3].send(bytes(20)))
        sim.drivers[2].send(bytes(20))
        deliver, finish = sim._deliver, sim._finish_tx
        read, after = [], []

        def sizing(frame):
            outcome = deliver(frame)
            read.append({a: len(r) for a, r in sim._rivals.items()})
            return outcome

        def checking(frame_id):
            finish(frame_id)
            after.append(([o.src for o in sim._on_air], dict(sim._rivals),
                          list(sim._listeners)))

        sim._deliver, sim._finish_tx = sizing, checking
        sim.run_until(10 ** 9)
        assert [frame.start_ns for frame in started][1:] == [end_ns]
        assert indexes_after_begin == [{}, {}]
        # stations 2 and 3 left rx to send, so only station 1 listens on
        assert read == [{1: 2}, {}]
        assert after == [([3], {}, [1]), ([], {}, [1])]

    def test_no_decision_calls_interferers_of(self, monkeypatch):
        def scanning(*args):
            raise AssertionError("interferers_of called by the engine")

        monkeypatch.setattr(channel, "interferers_of", scanning)
        metrics = run(dense_scenario(horizon_s=12.0))
        assert {"delivered", "collision"} <= {p.outcome
                                              for p in metrics.packets}


class TestRivalIndexDigests:
    """Pinned on the engine that scanned every frame on air at each
    decision and took each shadowing uniform with its own ``random()``
    call, and that built an RSSI record for every unshadowed frame."""

    # the trace hashes and event counts re-pinned when a timer wake became
    # one step to radio-ready, and when that step became the wake's one
    # timer, due at radio-ready; every output file kept its digest
    def test_hundred_shadowed_motes(self, tmp_path):
        metrics = run(hundred_mote_scenario())
        assert metrics.trace_hash == (
            "cd17c17bb246c925a7d5d9636d95501abd93b57bc5a0275b316cab4ccf3ab077")
        assert metrics.event_count == 2201
        packets = tmp_path / "packets.csv"
        assert packets in emit(metrics, "csv", tmp_path)
        assert hashlib.sha256(packets.read_bytes()).hexdigest() == (
            "45558753827a421242eb15d42b4e867235b46c51688ac094dea998a520d71722")

    def test_checked_in_dense_shadowed_scenario(self, tmp_path):
        path = (pathlib.Path(__file__).resolve().parents[1] / "scenarios"
                / "dense_shadowed.yaml")
        metrics = run(load(path))
        assert metrics.trace_hash == (
            "f2ae511041b7c5146dd0ffe48c10b4bff80828251914c51efcbc63ea70159e00")
        assert {p.outcome for p in metrics.packets} == {
            "delivered", "collision", "snr-floor"}
        # station 14 is no frame's dst: its decisions show only in its
        # rx_done charges in energy.csv
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in emit(metrics, "csv", tmp_path)}
        assert digests == {
            "packets.csv": "0f2002fcfd9ab11f9e07d96fb852c557142e6a23824cc6f2"
                           "a949c33dc593009e",
            "links.csv": "5041dae6b465d99bebc3aa28d80587784d05490d548035bda7"
                         "bf8755fa15d88a",
            "energy.csv": "cc2d0acb8e98901c1e149879d1c8bc5f3409b9801679dd0d8"
                          "3be76a30cd6c4f3",
        }


class TestGoldenDigests:
    """Digests pinned on the engine that scanned the whole transmission
    history. A change to dispatch order, RNG draw order or capture outcomes
    moves them."""

    def test_power_profile_trace_hash(self):
        # re-pinned when a burst became one event, when a WuRX interrupt
        # became a wake (one radio-ready timer, no MCU-awake one), when
        # each cycle came to schedule the next and withdraw its rx timeout,
        # and when the interrupt came to hold a timer wake
        assert power_profile(cycles=4).trace_hash == (
            "51270f5952af05c2fbdc5962ff0613b499e4fa9bcd96102b60667a4253864358")

    def test_shadowed_multi_mote_outputs(self, tmp_path):
        # the trace hash re-pinned when a timer wake became one step, and
        # when that step became the wake's one timer, due at radio-ready
        metrics = run(dense_scenario(horizon_s=12.0))
        assert metrics.trace_hash == (
            "fabf444ba275a01ed17f86fc81a49c8b3d6b041d50ca16d27a6d84dd728e0b95")
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in emit(metrics, "csv", tmp_path)}
        assert digests == {
            "packets.csv": "f65cf3fbe398d9f82e858535f20bc2b1b8e0dc3b"
                           "1e93fa15b301f455be1b3ea9",
            "links.csv": "d9193c65f7cab3d2ba431ccf726402a45f077290"
                         "b211b6a5cbc3eda2b57118fe",
            "energy.csv": "d1d573f83155dc62a300abec14096a990ca1cfc7"
                          "fd430a1565de314b8195fd0b",
        }

    def test_unshadowed_range_sweep_csv(self, tmp_path):
        rows, meta, _ = range_sweep(distances=(50.0, 600.0, 700.0),
                                    packets=5)
        from motesim import emit_sweep
        (path,) = emit_sweep(rows, meta, "csv", tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "df881ca04c8c8d1511d912b3155e18a6769ec768d7b7eddf1cd5310bfdcae8eb")

    def test_shadowed_range_sweep_csv(self, tmp_path):
        rows, meta, _ = range_sweep(distances=(50.0, 600.0, 700.0),
                                    packets=5, shadowing_sigma_db=4.0)
        from motesim import emit_sweep
        (path,) = emit_sweep(rows, meta, "csv", tmp_path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "6febc6aa261598e3184e65325727282da74c4add4fc03dece106e252adfbcde0")

    def test_harvesting_depletion_outputs(self, tmp_path):
        # the trace hash and event count re-pinned when a timer wake became
        # one step, and when that step became the wake's one timer, due at
        # radio-ready: node 4 sets no later timer, and node 2's dropped one
        # is its next wake
        sim = Simulator(harvest_depletion_scenario())
        metrics = sim.run()
        assert metrics.trace_hash == (
            "914185a7d3555376f091601b9ee049396ef8c8a2b365e238df4e8785fe73d804")
        assert metrics.event_count == 71
        assert [(e.depleted, e.battery_remaining_j, e.harvested_j,
                 e.consumed_j) for e in metrics.energy] == [
            (False, 9998.770047600021, 0.27000000000000013,
             1.4999524000000009),
            (True, 0.0, 0.009654305399999999, 0.4096543054),
            (False, 9997.476172918781, 0.02700000000000003,
             2.5508270811657914),
            (True, 0.0, 0.0, 1e-06)]
        assert sim.log_lines == [
            "node 4 depleted at 1001007000 ns",
            "drop node_timer for depleted node 2"]
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in emit(metrics, "csv", tmp_path)}
        assert digests == {
            "packets.csv": "dffe98c47d6feaf793e7ba16e8b182f718d73fea"
                           "d398a8afd744a2261d7a73b6",
            "links.csv": "9d57d8c903e7766646d05ae1587ae03adc4aa484"
                         "3e562acbdc99934cd0ec39e2",
            "energy.csv": "63f681f5df6ed3e6ec8aa45abf46abe70f424bd5"
                          "cb783921fbbd2b10260dee76",
        }

    def test_harvesting_depletion_conserves_energy(self):
        # a depleted node spends and harvests nothing from the charge that
        # empties its battery on, so each node balances to the floor
        metrics = run(harvest_depletion_scenario(), record_trace=False)
        assert [e.depleted for e in metrics.energy] == [False, True, False,
                                                        True]
        for e in metrics.energy:
            balance = (e.battery_initial_j - e.consumed_j + e.harvested_j
                       - e.battery_remaining_j)
            assert abs(balance) <= 1e-12 * max(e.battery_initial_j,
                                               e.consumed_j), e.address


class TestWakeupExchange:
    def test_latency_chain_exact(self):
        metrics = power_profile(cycles=4)
        data_airtime = 362_496_000  # 16 B payload + 6 B header at SF12/500k
        expected = 16_000_000 + 7_000 + 1_000_000 + data_airtime
        assert len(metrics.exchanges) == 4
        for exchange in metrics.exchanges:
            assert exchange.outcome == "completed"
            assert abs(exchange.latency_ns - expected) <= 1

    def test_lost_data_frame_does_not_shift_later_exchanges(self):
        # at 30 dB shadowing, frame seqno 13 (cycle 17) is lost; each cycle
        # that sent data is matched to its own frame, not to the next one
        scenario = power_profile_scenario(cycles=30, seed=1077)._replace(
            channel=ChannelParams(shadowing_sigma_db=30.0))
        metrics = run(scenario, record_trace=False)
        assert [(p.seqno, p.outcome) for p in metrics.packets
                if p.outcome != "delivered"] == [(13, "below-sensitivity")]
        exchanges = {ex.cycle: ex for ex in metrics.exchanges}
        assert exchanges[17].outcome == "data-lost"
        assert exchanges[27].outcome == "completed"
        assert {ex.latency_ns for ex in metrics.exchanges
                if ex.outcome == "completed"} == {379_503_000}

    def test_lost_second_frame_leaves_cycles_1_and_3_matched(self):
        # the sleeper's stack never sees cycle 2's frame; its rx timeout
        # ends that cycle before cycle 3's burst
        sim = Simulator(power_profile_scenario(cycles=3, cycle_period_s=2.0),
                        record_trace=False)
        driver = sim.drivers[2]
        hand_up = driver.rx_done

        def drop_seqno_2(frame):
            if frame.seqno != 2:
                hand_up(frame)

        driver.rx_done = drop_seqno_2
        metrics = sim.run()
        received = {msg.seqno: t_rx for t_rx, msg in sim.apps[2].received}
        assert sorted(received) == [1, 3]
        assert [(ex.cycle, ex.outcome, ex.data_rx_ns)
                for ex in metrics.exchanges] == [
            (1, "completed", received[1]), (2, "data-lost", None),
            (3, "completed", received[3])]

    def test_bystander_decodes_and_rejects_every_burst(self):
        # sleeper 3 is in wake range of every burst to sleeper 2, but its
        # wake-up address differs
        metrics = run(load(pathlib.Path(__file__).resolve().parents[1]
                           / "scenarios" / "wurx_bystander.yaml"))
        assert [ex.outcome for ex in metrics.exchanges] == ["completed"] * 5
        target, bystander = metrics.energy[1:]
        assert (target.wurx_interrupts, target.wurx_false_rejected) == (5, 0)
        assert (bystander.wurx_interrupts,
                bystander.wurx_false_rejected) == (0, 5)
        rows = {r[0]: r for r in bystander.rows}
        assert rows["wurx_decode"][2] == 5 * 16_000_000
        assert rows["mcu_active"][2] == 0  # never woke
        assert rows["lora_rx"][2] == 0
        assert rows["sleep"][2] == metrics.horizon_ns - 5 * 16_000_000

    def test_twin_without_an_app_wakes_to_radio_ready(self):
        # sleeper 3 answers to the target's wake-up address but runs no
        # application: its interrupt is a wake, so it ends with the radio
        # in standby, and every state after its sleep charges mcu_active
        scenario = power_profile_scenario(cycles=3)
        target = scenario.node(2)
        twin = target._replace(address=3, position=Position(y=3.0))
        scenario = scenario._replace(nodes=scenario.nodes + (twin,))
        sim = Simulator(scenario, record_trace=False)
        metrics = sim.run()
        assert [ex.outcome for ex in metrics.exchanges] == ["completed"] * 3
        device = sim.devices[3]
        assert (device.mcu, device.radio) == (node.MCU_ACTIVE,
                                              node.RADIO_STANDBY)
        assert device.wurx_interrupts == 3  # the last two re-trigger
        assert device.ledger.time_ns == {
            "sleep": 1_000_000_000, "wurx_decode": 16_000_000,
            "mcu_active": scenario.horizon_ns - 1_016_000_000}

    def test_burst_during_a_held_wake_changes_no_charge(self):
        # the twin's radio takes 1.5 s to turn on, so the second burst,
        # at 2 s, reaches it while its first wake is held, due at
        # 2.516007 s: that decode changes no charge, as the wake's accruals
        # hold the dwell from its tick on, and its interrupt is ignored
        scenario = power_profile_scenario(cycles=3)
        target = scenario.node(2)
        twin = target._replace(address=3, position=Position(y=3.0),
                               radio_turn_on_ns=1_500_000_000)
        scenario = scenario._replace(nodes=scenario.nodes + (twin,))
        sim = Simulator(scenario, record_trace=False)
        metrics = sim.run()
        assert [ex.outcome for ex in metrics.exchanges] == ["completed"] * 3
        device = sim.devices[3]
        assert (device.mcu, device.radio) == (node.MCU_ACTIVE,
                                              node.RADIO_STANDBY)
        assert device.wurx_interrupts == 3
        assert device.ledger.time_ns == {
            "sleep": 1_000_000_000, "wurx_decode": 16_000_000,
            "mcu_active": scenario.horizon_ns - 1_016_000_000}

    def test_out_of_wake_range_times_out(self):
        # data link viable at 600 m but the wake link dies at -50 dBm
        scenario = power_profile_scenario(cycles=2, distance_m=600.0)
        metrics = run(scenario, record_trace=False)
        assert all(ex.outcome == "wake-timeout" for ex in metrics.exchanges)
        sleeper_report = metrics.energy[1]
        rows = {r[0]: r for r in sleeper_report.rows}
        assert rows["wurx_decode"][2] == 0  # below sensitivity: no decode
        assert rows["sleep"][2] == metrics.horizon_ns

    def test_custom_wub_bit_rate_scales_burst(self):
        scenario = power_profile_scenario(cycles=1)
        sleeper = scenario.node(2)
        slow = sleeper._replace(
            wurx=sleeper.wurx._replace(bit_rate_bps=500.0))
        scenario = scenario._replace(nodes=(scenario.node(1), slow))
        metrics = run(scenario, record_trace=False)
        expected = 32_000_000 + 7_000 + 1_000_000 + 362_496_000
        assert metrics.exchanges[0].latency_ns == expected

    def test_burst_uses_the_initiators_configured_power(self):
        # at 5 m a 14 dBm burst arrives at about -43 dBm, above the WuRX's
        # -50 dBm sensitivity; at -4 dBm it arrives at about -61 dBm
        scenario = power_profile_scenario(cycles=3, distance_m=5.0)
        assert all(ex.outcome == "completed"
                   for ex in run(scenario, record_trace=False).exchanges)
        sim = Simulator(scenario, record_trace=False)
        driver = sim.drivers[1]
        driver.configure(driver.config._replace(tx_power_dbm=-4.0))
        metrics = sim.run()
        assert len(metrics.exchanges) == 3
        assert all(ex.outcome == "wake-timeout" for ex in metrics.exchanges)

    def test_second_burst_while_one_is_on_air_raises(self):
        # a decode ends with its burst, and the initiator, the only node
        # that sends bursts, cannot start one while its radio is in tx: so
        # no burst reaches a receiver mid-decode
        sim = Simulator(power_profile_scenario(cycles=1), record_trace=False)
        sim.start_apps()
        sim.run_until(1_000_000_000 + 1_000_000)  # the first burst on air
        assert sim.devices[2].wurx_decoding
        with pytest.raises(IllegalTransition, match="begin_wub_tx illegal"):
            sim.send_burst(sim.devices[1])


class TestDepletion:
    def test_depleted_mote_stops_transmitting(self):
        nodes = (
            NodeSpec(address=1, role="bs", position=Position()),
            NodeSpec(address=2, role="mote", position=Position(x=10.0),
                     battery_j=0.40),  # enough for a handful of frames
        )
        scenario = Scenario(horizon_ns=60 * 10 ** 9, seed=1,
                            radio=RadioConfig(), channel=ChannelParams(),
                            nodes=nodes,
                            app=AppSpec(kind="periodic", src=2, dst=1,
                                        period_ns=10 ** 9))
        metrics = run(scenario, record_trace=False)
        sent = metrics.link(2, 1).sent
        assert 0 < sent < 59
        mote = metrics.energy[1]
        assert mote.depleted
        assert mote.battery_remaining_j == 0.0

    # At default powers, mote 2's first wake timer, due at radio-ready
    # 1.007 ms after its tick at 1 s, charges 1.83 uJ of sleep up to the
    # tick, then its MCU wake-up 16.8 nJ, then its radio turn-on 2.4 uJ.
    @pytest.mark.parametrize("battery_j, sent, state, log", [
        # the sleep charge: the step stops, and sets no later wake
        (1e-6, 0, (node.MCU_ACTIVE, node.RADIO_TURNING_ON),
         ["node 2 depleted at 1001007000 ns"]),
        # the MCU wake-up's charge: the step stops before radio-ready
        (1.8384e-6, 0, (node.MCU_ACTIVE, node.RADIO_TURNING_ON),
         ["node 2 depleted at 1001007000 ns"]),
        # the turn-on's charge: the frame is still sent, the late stop of a
        # node that stops at its next charge; ROADMAP item 4, a stop at
        # the ns the battery empties, will change this. The wake set at
        # that radio-ready, due at 2.001007 s, is dropped.
        (2e-6, 1, (node.MCU_SLEEP, node.RADIO_OFF),
         ["drop node_timer for depleted node 2"]),
    ], ids=["sleep", "mcu_wakeup", "radio_turn_on"])
    def test_battery_emptied_on_the_way_to_radio_ready(self, battery_j, sent,
                                                       state, log):
        nodes = (NodeSpec(address=1, role="bs", position=Position()),
                 NodeSpec(address=2, role="mote", position=Position(x=10.0),
                          battery_j=battery_j))
        scenario = Scenario(horizon_ns=3_500_000_000, seed=1,
                            radio=RadioConfig(), channel=ChannelParams(),
                            nodes=nodes,
                            app=AppSpec(kind="periodic", src=2, dst=1,
                                        period_ns=10 ** 9))
        sim = Simulator(scenario, record_trace=False)
        metrics = sim.run()
        assert metrics.link(2, 1).sent == sent
        mote = sim.devices[2]
        assert mote.ledger.depleted
        assert (mote.mcu, mote.radio) == state
        assert sim.log_lines == log
        assert mote.ledger.total_time_ns() == scenario.horizon_ns

    # At default powers, the sleeper's first burst ends at 1.016 s with
    # 1.83 uJ of sleep and 4.544 uJ of decode charged; its MCU wake-up then
    # costs 16.8 nJ and its radio turn-on 2.4 uJ.
    @pytest.mark.parametrize("battery_uj, statuses, state", [
        # the decode's end: no interrupt, so the target never wakes
        (6.0, ["wake-timeout"] * 3, (node.MCU_SLEEP, node.RADIO_OFF)),
        # the MCU wake-up's charge: its wake is held at the data slot, so
        # the frame goes out to a radio that never listens
        (6.38, ["data-lost"] * 3, (node.MCU_ACTIVE, node.RADIO_TURNING_ON)),
        # the turn-on's charge: in rx, but a depleted listener decodes none
        (8.0, ["data-lost"] * 3, (node.MCU_ACTIVE, node.RADIO_RX)),
        # the first frame's decode: received, then awake for good
        (9.0, ["completed", "data-lost", "data-lost"],
         (node.MCU_ACTIVE, node.RADIO_RX)),
    ], ids=["wurx_decode", "mcu_wakeup", "radio_turn_on", "lora_rx"])
    def test_sleeper_emptied_on_its_wake_path(self, battery_uj, statuses,
                                              state):
        scenario = power_profile_scenario(cycles=3)
        initiator, sleeper = scenario.nodes
        scenario = scenario._replace(nodes=(
            initiator, sleeper._replace(battery_j=battery_uj * 1e-6)))
        sim = Simulator(scenario, record_trace=False)
        metrics = sim.run()
        assert [ex.outcome for ex in metrics.exchanges] == statuses
        target = sim.devices[2]
        assert target.ledger.depleted
        assert (target.mcu, target.radio) == state
        assert target.ledger.total_time_ns() == scenario.horizon_ns


class TestWakeAt:
    """A sleeping sender's wake is one timer, due at radio-ready: its tick
    plus the MCU wake-up and the radio turn-on."""

    @staticmethod
    def scenario(horizon_ns, battery_j=1.0e4, kind="periodic"):
        nodes = (NodeSpec(address=1, role="bs", position=Position()),
                 NodeSpec(address=2, role="mote", position=Position(x=10.0),
                          battery_j=battery_j))
        app = (AppSpec(kind="periodic", src=2, dst=1, period_ns=10 ** 9)
               if kind == "periodic" else AppSpec(kind="none"))
        return Scenario(horizon_ns=horizon_ns, seed=1, radio=RadioConfig(),
                        channel=ChannelParams(), nodes=nodes, app=app)

    # the horizon falls this long after the first tick, at 1 s, and before
    # its radio-ready, 1.007 ms after it
    @pytest.mark.parametrize("past_tick_ns, battery_j", [
        (0, 1.0e4), (500_000, 1.0e4), (1_006_999, 1.0e4),
        (500_000, 1e-6),  # the sleep up to the tick empties the battery
    ])
    def test_horizon_between_a_tick_and_its_radio_ready(self, past_tick_ns,
                                                         battery_j):
        # the MCU is waking from the tick on, as when a tick callback
        # began the wake: the horizon reads the held wake's tick, stops the
        # wake there and charges the rest of the dwell to mcu_active
        sim = Simulator(self.scenario(10 ** 9 + past_tick_ns, battery_j),
                        record_trace=False)
        metrics = sim.run()
        assert metrics.total_sent() == 0
        mote = sim.devices[2]
        assert mote.wake_tick_ns == 10 ** 9
        assert (mote.mcu, mote.radio) == (node.MCU_ACTIVE,
                                          node.RADIO_TURNING_ON)
        assert mote.ledger.time_ns == {"sleep": 10 ** 9, **(
            {"mcu_active": past_tick_ns} if past_tick_ns else {})}
        assert mote.ledger.depleted == (battery_j < 1e-5)

    def test_tick_before_the_last_charge_raises_and_changes_nothing(self):
        sim = Simulator(self.scenario(10 ** 8, kind="none"),
                        record_trace=False)
        sim.start_apps()
        mote, device = sim._services_for(2), sim.devices[2]
        mote.wake_at(0)  # ready at 1.007 ms
        sim.run_until(2_000_000)
        mote.request_sleep()  # the last charge, at 2 ms
        mote.wake_at(2_000_000 - 1)

        def state():
            ledger = device.ledger
            return (device.mcu, device.radio, dict(ledger.time_ns),
                    dict(ledger.energy_j), ledger.consumed_j,
                    ledger.battery_remaining_j, ledger.depleted)

        before = state()
        with pytest.raises(IllegalTransition, match="backwards"):
            sim.run_until(10 ** 8)
        assert state() == before
        assert (device.mcu, device.radio) == (node.MCU_SLEEP, node.RADIO_OFF)


def node_timers(sim):
    """The queued node timers as (due ns, node, node event), in due order."""
    return sorted((at_ns, target, payload)
                  for at_ns, _seq, _kind, target, payload in sim._queue
                  if _kind == engine.NODE_TIMER)


class TestFollowUpTimers:
    """Each call site schedules what its one transition needs: a radio-on
    its radio-ready, and a burst's end a wake timer only for an interrupt
    that held one."""

    @staticmethod
    def station(radio_turn_on_ns=2_500_000):
        return Simulator(Scenario(
            horizon_ns=10 ** 9, seed=1, radio=RadioConfig(),
            channel=ChannelParams(),
            nodes=(NodeSpec(address=1, role="bs", position=Position(),
                            radio_turn_on_ns=radio_turn_on_ns),),
            app=AppSpec(kind="none")), record_trace=False)

    def test_radio_on_queues_one_radio_ready_timer(self):
        sim = self.station()
        sim.run_until(1_000)
        driver = sim.drivers[1]
        driver.on()
        assert node_timers(sim) == [(2_501_000, 1, node.RADIO_READY)]
        assert len(sim._queue) == 1
        sim.run_until(2_501_000)  # the station's sink starts rx there
        assert sim.devices[1].radio is node.RADIO_RX
        assert list(sim._listeners) == [1] and sim._queue == []

    def test_rejected_radio_on_queues_nothing(self):
        sim = self.station()
        driver = sim.drivers[1]
        driver.on()
        queued = list(sim._queue)
        with pytest.raises(IllegalTransition, match="radio_on illegal"):
            driver.on()  # the radio is turning on
        assert sim._queue == queued
        sim.run_until(2_500_000)
        sim._services_for(1).request_sleep()
        with pytest.raises(IllegalTransition, match="radio_on illegal"):
            driver.on()  # the MCU sleeps
        assert sim._queue == []

    def test_burst_sets_a_wake_timer_only_for_a_sleeping_live_node(self):
        # the burst to sleeper 2 ends at 1.016 s; it also reaches an awake
        # twin, a twin whose wake is held for 1.015 s and a twin the
        # decode's charge empties, and none of them takes a timer[wake]
        scenario = power_profile_scenario(cycles=1)
        target = scenario.node(2)
        awake = target._replace(address=3, role="bs",
                                position=Position(y=3.0))
        held = target._replace(address=4, position=Position(y=-3.0))
        emptied = target._replace(address=5, position=Position(x=-3.0),
                                  battery_j=6e-6)
        sim = Simulator(scenario._replace(
            nodes=scenario.nodes + (awake, held, emptied)),
            record_trace=False)
        sim.start_apps()
        sim._services_for(4).wake_at(1_015_000_000)
        sim.run_until(1_016_000_000 - 1)
        before = node_timers(sim)
        assert (1_016_007_000, 4, node.WAKE) in before
        sim.run_until(1_016_000_000)
        assert [timer for timer in node_timers(sim)
                if timer not in before] == [(1_017_007_000, 2, node.WAKE)]
        devices = sim.devices
        assert [devices[a].wurx_interrupts for a in (2, 3, 4, 5)] == [1] * 4
        assert devices[3].mcu is node.MCU_ACTIVE
        assert devices[4].wake_tick_ns == 1_015_000_000
        assert devices[5].ledger.depleted


class TestEmission:
    def test_csv_and_text_totals_agree(self, tmp_path):
        metrics = run(two_node_scenario(packets=4))
        csv_paths = emit(metrics, "csv", tmp_path)
        energy_csv = next(p for p in csv_paths if p.name == "energy.csv")
        per_node = {}
        for line in energy_csv.read_text().splitlines():
            if line.startswith("#") or line.startswith("node,"):
                continue
            addr, _label, _p, _t, energy, _pct = line.split(",")
            per_node[int(addr)] = per_node.get(int(addr), 0.0) + float(energy)
        text = "\n".join(render_text(metrics))
        for report in metrics.energy:
            total_line = [ln for ln in text.splitlines()
                          if ln.split()[:2] == [str(report.address), "total"]]
            assert total_line, "text report must carry per-node totals"
            text_total = float(total_line[0].split()[-1])
            assert per_node[report.address] == pytest.approx(text_total,
                                                             rel=1e-9)

    def test_reemit_byte_identical(self, tmp_path):
        metrics = run(two_node_scenario(packets=3))
        first = emit(metrics, "csv", tmp_path / "a")
        second = emit(metrics, "csv", tmp_path / "b")
        for pa, pb in zip(first, second):
            assert pa.read_bytes() == pb.read_bytes()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_csv_rows_equal_their_cells(self, data, tmp_path_factory):
        """Each packets.csv and exchanges.csv row is formatted in one
        operation; its bytes are those of its cells joined by commas, with
        an unknown latency as an empty field."""
        floats = st.floats(width=64)
        packets = data.draw(st.lists(st.builds(
            PacketRecord, st.integers(1, 10 ** 6), st.integers(0, 65535),
            st.integers(0, 65535), st.integers(0, 65535),
            st.integers(0, 10 ** 16), floats, floats, floats,
            st.sampled_from(["delivered", "collision", "in-flight"])),
            max_size=5))
        exchanges = data.draw(st.lists(st.builds(
            ExchangeRecord, st.integers(1, 10 ** 4), st.integers(0, 10 ** 13),
            st.sampled_from(["completed", "wake-timeout", "data-lost"]),
            st.none() | st.integers(0, 10 ** 13)), min_size=1, max_size=5))
        metrics = RunMetrics("0" * 16, 1, 10 ** 9, {}, packets, 0, "", 0.0)
        metrics.exchanges = exchanges
        out = tmp_path_factory.mktemp("csv")
        files = {path.name: path.read_text().splitlines()[3:]
                 for path in emit(metrics, "csv", out)}
        assert files["packets.csv"] == [",".join([
            str(p.seqno), str(p.src), str(p.dst), _fmt(p.t_start_ns / 1e9, 9),
            _fmt(p.distance_m, 3), _fmt(p.rssi_dbm, 3), _fmt(p.snr_db, 3),
            p.outcome]) for p in packets]
        assert files["exchanges.csv"] == [",".join([
            str(ex.cycle), _fmt(ex.wub_start_ns / 1e9, 9), ex.outcome,
            _fmt(None if ex.latency_ns is None else ex.latency_ns / 1e9, 9)])
            for ex in exchanges]
        # the text report splits those lines into its cells
        assert render_text(metrics)[-len(exchanges):] == [" ".join(
            f"{cell:>{width}}" for cell, width in zip(
                line.split(","), (6, 14, 14, 12)))
            for line in files["exchanges.csv"]]

    def test_sweep_csv_schema(self, tmp_path):
        rows, meta, _ = range_sweep(distances=(1.0, 600.0), packets=2)
        from motesim import emit_sweep
        (path,) = emit_sweep(rows, meta, "csv", tmp_path)
        lines = [ln for ln in path.read_text().splitlines()
                 if not ln.startswith("#")]
        assert lines[0] == "distance_m,sent,delivered,pdr,rssi_dbm_mean,snr_db_mean"
        assert len(lines) == 3


# unshadowed range_sweep inputs, each against one two-node run per point
SWEEP_CASES = {
    "defaults": dict(packets=5),
    "repeated-distance-and-1m": dict(distances=(50.0, 1.0, 600.0, 50.0),
                                     packets=4),
    "beyond-range": dict(distances=(600.0, 2500.0, 5000.0), packets=3),
    # a 200 B frame would outlast a 1 s guard after the last tick
    "in-flight": dict(payload_len=200, packets=3),
}


class TestRangeSweep:
    @pytest.mark.parametrize("kwargs", SWEEP_CASES.values(), ids=SWEEP_CASES)
    def test_rows_and_meta_match_one_run_per_point(self, kwargs):
        rows, meta, _ = range_sweep(**kwargs)
        assert (rows, meta) == reference_range_sweep(**kwargs)

    # an odd station count leaves a frame's last draw as the gauss spare
    # that the next frame's first station takes
    @pytest.mark.parametrize("distances", [
        (50.0, 1000.0, 1500.0), (1.0, 50.0, 50.0, 1500.0)],
        ids=["odd", "even"])
    def test_shadowed_rows_match_one_rng_over_the_stations(self, distances):
        rows, _meta, _ = range_sweep(distances=distances, packets=20, seed=3,
                                     shadowing_sigma_db=4.0)
        assert rows == reference_shadowed_sweep(distances, 20, TABLE, seed=3,
                                                shadowing_sigma_db=4.0)
        # the 1.5 km point keeps some frames and loses others
        assert 0 < rows[-1].delivered < 20

    # inputs that a fixed 1 s guard after the last tick miscounts: a frame
    # longer than the guard, a period shorter than it, and one more tick
    # within it whose frame the guard cuts off
    @pytest.mark.parametrize("kwargs", [
        dict(payload_len=200, packets=3), dict(period_s=0.5, packets=3),
        dict(period_s=0.7, packets=5), dict(period_s=0.363503001, packets=5),
    ], ids=["long-frame", "short-period", "tick-and-frame-past-1s",
            "period-1ns-past-the-cycle"])
    def test_point_ends_when_its_last_frame_lands(self, kwargs):
        rows, _meta, _ = range_sweep(**kwargs)
        assert {r.sent for r in rows} == {kwargs["packets"]}
        (at_50m,) = [r for r in rows if r.distance_m == 50.0]
        assert at_50m.delivered == kwargs["packets"]

    def test_frames_after_a_station_depletes_count_as_sent(self,
                                                           monkeypatch):
        # station 2's 2 J last about 40 s of listening, so it decides only
        # the first 4 of the 10 frames; the other stations decide them all
        def station_2_battery(*args):
            scenario = engine_range_sweep_scenario(*args)
            return scenario._replace(nodes=tuple(
                spec._replace(battery_j=2.0) if spec.address == 2 else spec
                for spec in scenario.nodes))

        engine_range_sweep_scenario = engine.range_sweep_scenario
        monkeypatch.setattr(engine, "range_sweep_scenario", station_2_battery)
        rows, _meta, (metrics,) = range_sweep(
            distances=(50.0, 100.0, 200.0), packets=10)
        assert [(r.sent, r.delivered) for r in rows] == [
            (10, 10), (10, 4), (10, 10)]
        assert [e.depleted for e in metrics.energy] == [
            False, True, False, False]
        assert {(s.sent, s.delivered) for s in metrics.links.values()} == {
            (10, 10), (10, 4)}
        # the means are over the frames decided, all of one RSSI at σ = 0
        assert rows[1].rssi_dbm_mean == pytest.approx(
            range_sweep(distances=(100.0,), packets=10)[0][0].rssi_dbm_mean)

    @pytest.mark.parametrize("sigma", [0.0, 4.0])
    @pytest.mark.parametrize("distances", [(0.0,), (50.0, -1.0), ()])
    def test_distance_not_positive_rejected(self, distances, sigma):
        # no distance at all too, which once returned no rows at any σ
        with pytest.raises(ScenarioError, match="distances: at least one"):
            range_sweep(distances=distances, packets=2,
                        shadowing_sigma_db=sigma)

    def test_bad_point_rejected_before_any_run(self, monkeypatch):
        runs = []
        monkeypatch.setattr(Simulator, "run", runs.append)
        with pytest.raises(ScenarioError):
            range_sweep(distances=(50.0, 600.0, 0.0), packets=2,
                        shadowing_sigma_db=4.0)
        assert runs == []

    @pytest.mark.parametrize("sigma, runs", [(0.0, 1), (4.0, 1)])
    def test_metrics_hold_every_point(self, sigma, runs):
        rows, _meta, metrics_list = range_sweep(
            distances=(1.0, 600.0, 600.0, 2500.0), packets=4,
            shadowing_sigma_db=sigma)
        assert len(metrics_list) == runs
        # each point's (mote, base station) link, in point order
        assert [(s.sent, s.delivered) for m in metrics_list
                for _link, s in sorted(m.links.items())] == [
            (r.sent, r.delivered) for r in rows]
        assert sum(m.total_sent() for m in metrics_list) == sum(
            r.sent for r in rows) == 16
        assert sum(m.total_delivered() for m in metrics_list) == sum(
            r.delivered for r in rows)
        for metrics in metrics_list:
            assert {node.total_time_ns for node in metrics.energy} == {
                metrics.horizon_ns}
            assert all(s.delivered <= s.sent for s in metrics.links.values())


class TestShadowedSweepClosedForm:
    """Under lognormal shadowing, a lone frame at distance d is decoded iff
    P̄(d) + X >= T with X ~ N(0, sigma**2), so each point's delivered count
    is Binomial(sent, p(d)) and its mean RSSI estimates P̄(d)."""

    SIGMAS = (4.0, 8.0)
    PACKETS = 2_000
    # alpha = 1e-4 over the whole test, Bonferroni-split over its points
    POINT_ALPHA = 1e-4 / (len(SIGMAS) * len(DEFAULT_SWEEP_DISTANCES_M))

    # a seed per sigma, so that the two sweeps draw apart
    @pytest.mark.parametrize("sigma, seed", zip(SIGMAS, (7, 101)))
    def test_delivered_and_mean_rssi(self, sigma, seed):
        rows, meta, runs = range_sweep(packets=self.PACKETS,
                                       shadowing_sigma_db=sigma, seed=seed)
        # no station runs out, so every frame sent is decided there
        assert not any(node.depleted for metrics in runs
                       for node in metrics.energy)
        for row in rows:
            assert row.sent == self.PACKETS
            p, q = shadowed_pdr(row.distance_m, meta, TABLE)
            lo, hi = binomial_acceptance(row.sent, p, q, self.POINT_ALPHA)
            assert lo <= row.delivered <= hi, (row, p)
            z = ((row.rssi_dbm_mean - mean_rssi_dbm(row.distance_m, meta))
                 / (sigma / math.sqrt(row.sent)))
            assert abs(z) <= 4.0, (row, z)


class TestCaptureClosedForm:
    """Motes that tick together send frames that start and end together at
    the one listening base station, so each frame there meets every other
    as a rival. Under i.i.d. lognormal shadowing a link's delivered count
    is Binomial(ticks, p_i), p_i from ``oracles.capture_pdr``; since the
    capture threshold is positive, at most one frame of a tick is decoded,
    so the total is Binomial(ticks, sum of p_i)."""

    TICKS = 5_000
    SIGMA = 4.0
    DISTANCES_M = (500.0, 640.0, 820.0, 990.0)
    # alpha = 1e-4 over the whole test, Bonferroni-split over the links and
    # the total
    ALPHA = 1e-4 / (len(DISTANCES_M) + 1)

    def test_delivered_per_link_and_in_total(self):
        # src is omitted, so every mote sends; all take the default MCU
        # wake-up and radio turn-on, so their frames start together
        scenario = from_dict({
            "sim": {"horizon_s": self.TICKS + 0.5, "seed": 36},
            "channel": {"shadowing_sigma_db": self.SIGMA},
            "nodes": [{"address": 1, "role": "bs"}] + [
                {"address": address, "role": "mote",
                 "position": {"x": distance}}
                for address, distance in enumerate(self.DISTANCES_M, 2)],
            "app": {"kind": "periodic", "dst": 1, "payload_len": 16,
                    "period_s": 1.0},
        })
        metrics = run(scenario, record_trace=False)
        meta = {**scenario.channel._asdict(),
                "tx_power_dbm": scenario.radio.tx_power_dbm}
        means = [mean_rssi_dbm(distance, meta)
                 for distance in self.DISTANCES_M]
        radio = scenario.radio
        threshold = decode_threshold_dbm(
            radio.spreading_factor, radio.bandwidth_hz,
            scenario.channel.noise_figure_db, TABLE)
        total = 0
        total_p = 0.0
        for i, address in enumerate(range(2, len(means) + 2)):
            link = metrics.link(address, 1)
            assert link.sent == self.TICKS
            p = capture_pdr(means, i, threshold,
                            scenario.channel.capture_threshold_db, self.SIGMA)
            lo, hi = binomial_acceptance(self.TICKS, p, 1.0 - p, self.ALPHA)
            assert lo <= link.delivered <= hi, (address, link.delivered, p)
            total += link.delivered
            total_p += p
        lo, hi = binomial_acceptance(self.TICKS, total_p, 1.0 - total_p,
                                     self.ALPHA)
        assert lo <= total <= hi, (total, total_p)


class TestLoneDecisions:
    """In an unshadowed run, a frame with no rival at a listener reuses the
    decision stored for its RSSI, spreading factor and bandwidth there."""

    @pytest.mark.parametrize("sigma, decisions", [(0.0, 10), (4.0, 50)])
    def test_decide_reception_calls(self, monkeypatch, sigma, decisions):
        # ten stations, each at its own RSSI, hear five frames each
        calls = []
        decide = channel.decide_reception

        def counting(*args):
            calls.append(args)
            return decide(*args)

        monkeypatch.setattr(channel, "decide_reception", counting)
        rows, _meta, _ = range_sweep(packets=5, shadowing_sigma_db=sigma)
        assert sum(r.sent for r in rows) == 50
        assert len(calls) == decisions

    def test_rivalled_decision_is_never_stored(self, monkeypatch):
        # motes 2 and 3 are 50 m from base station 1, so their frames reach
        # it at one RSSI; their first frames overlap, and mote 3's 50 mJ
        # run out in its first frame, so mote 2's later frames are lone
        scenario = multi_mote_scenario(
            [Position(x=50.0), Position(x=-50.0)], horizon_s=4.0)
        scenario = scenario._replace(nodes=scenario.nodes[:2] + (
            scenario.nodes[2]._replace(battery_j=0.05),))
        rivals = []
        decide = channel.decide_reception

        def recording(frame, rx_addr, strongest_rival_dbm, *rest):
            rivals.append(strongest_rival_dbm)
            return decide(frame, rx_addr, strongest_rival_dbm, *rest)

        monkeypatch.setattr(channel, "decide_reception", recording)
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        metrics = sim.run()
        assert [frame.src for frame in started] == [2, 3, 2, 2]
        assert len({frame.rssi_by_rx[1] for frame in started}) == 1
        assert [(p.src, p.outcome) for p in metrics.packets] == [
            (2, "collision"), (3, "collision"), (2, "delivered"),
            (2, "delivered")]
        # two decisions with a rival, then one lone decision kept for both
        # lone frames
        assert rivals == [started[0].rssi_by_rx[1]] * 2 + [None]


class TestWorkCounts:
    """Calls per run repeat exactly. A decode at a listener charges its
    ledger without a state change, so it is no ``transition`` call, and the
    ledger's checkpoints, the ``accrue`` calls, are those of a decode that
    passed through the state machine. A state entered is one ``_apply``
    call: a wake charges its sleep, MCU wake-up and turn-on dwells straight
    to the ledger and enters radio-ready alone, and each device's initial
    state is one more. Rival indexes are built at need, so their builds
    repeat exactly too."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"transition": 0, "accrue": 0, "_apply": 0}
        for cls, name in ((MoteDevice, "transition"), (EnergyLedger, "accrue"),
                          (MoteDevice, "_apply")):
            method = getattr(cls, name)

            def counting(*args, _method=method, _name=name):
                calls[_name] += 1
                return _method(*args)

            monkeypatch.setattr(cls, name, counting)
        return calls

    def test_coverage_sweep(self, calls):
        # 360 frames decided at each of ten listening stations; a timer
        # wake is its one timer, due at radio-ready, so each frame takes 2
        # events and 4 transitions
        _rows, _meta, runs = range_sweep()
        assert sum(metrics.event_count for metrics in runs) == 730
        assert calls == {"transition": 1_470, "accrue": 4_332,
                         "_apply": 1_492}

    def test_shadowed_coverage_sweep(self, calls, monkeypatch):
        # one run at every σ: each of the 360 frames takes one RssiOnRead
        # of ten draws, and its decisions at the stations change no state
        builds = []

        class CountedRssi(channel.RssiOnRead):
            __slots__ = ()

            def __init__(self, *args):
                builds.append(None)
                super().__init__(*args)

        monkeypatch.setattr(channel, "RssiOnRead", CountedRssi)
        _rows, _meta, runs = range_sweep(shadowing_sigma_db=4.0)
        assert [metrics.event_count for metrics in runs] == [730]
        assert calls == {"transition": 1_470, "accrue": 4_292,
                         "_apply": 1_492}
        assert len(builds) == 360

    def test_power_profile(self, calls):
        # the sleeper decodes the initiator's frame once per cycle; a
        # burst is one event, whose end also ends the sleeper's decode, its
        # WuRX interrupt holds a wake and enters no state: one wake timer,
        # and the frame withdraws the rx timeout. The one more is the
        # initiator's radio-on.
        assert power_profile(cycles=1000, seed=0).event_count == 6_001
        assert calls == {"transition": 8_002, "accrue": 10_003,
                         "_apply": 9_006}

    def test_in_phase_dense_periodic(self, calls):
        # twenty motes tick together, and each tick's frames end before the
        # next: a frame is its wake timer, due at radio-ready, and its end,
        # and wake, tx_request, tx_done and sleep_request. The station adds
        # one timer and three transitions to listen. The accruals are the
        # tick chain's: a wake charges the sleep up to its tick, the MCU
        # wake-up and the turn-on, and enters one state. The 21 devices'
        # initial states and the station's three, and 21 finalize calls,
        # are the 45 other state entries.
        metrics = run(hundred_mote_scenario(motes=20, horizon_s=115),
                      record_trace=False)
        frames = len(metrics.packets)
        assert frames == 20 * 11
        assert metrics.event_count == 2 * frames + 1
        assert calls == {"transition": 4 * frames + 3, "accrue": 913,
                         "_apply": 4 * frames + 45}

    @pytest.mark.parametrize("scenario, packets, builds, entries", [
        # seven motes whose frames overlap in part or whole, one listener
        (lambda: dense_scenario(horizon_s=12.0), 77, 33, 187),
        # twelve staggered motes, two listening base stations
        (lambda: load(pathlib.Path(__file__).resolve().parents[1]
                      / "scenarios" / "dense_shadowed.yaml"), 348, 174, 348),
    ], ids=["dense_scenario", "dense_shadowed.yaml"])
    def test_rival_index_builds(self, scenario, packets, builds, entries):
        # an index is built only by a decision that finds company on air
        # and no index there since the last change of the medium
        sim = Simulator(scenario(), record_trace=False)
        indexes = sim._rivals = CountedIndexes()
        assert len(sim.run().packets) == packets
        assert (indexes.builds, indexes.entries) == (builds, entries)


class TestQueueSize:
    """ROADMAP aim 1: the cost per event must not grow with the horizon, so
    the event heap must not either."""

    class RecordingSimulator(Simulator):
        largest = 0  # the most entries the queue held after a push

        def schedule(self, *args):
            seq = super().schedule(*args)
            self.largest = max(self.largest, len(self._queue))
            return seq

    def test_power_profile_queue_does_not_grow_with_cycles(self):
        largest = []
        for cycles in (10, 1000):
            sim = self.RecordingSimulator(
                power_profile_scenario(cycles=cycles), record_trace=False)
            sim.run()
            largest.append(sim.largest)
            # a withdrawn entry leaves the set when popped: only the last
            # cycle's rx timeout, due past the horizon, is still queued
            assert len(sim._withdrawn) == 1
        assert largest[0] == largest[1]


class TestWithdrawnCallbacks:
    """A cancelled callback is no event: it is not run, counted, traced or
    logged, and the callbacks due at its nanosecond keep their order."""

    @staticmethod
    def simulator():
        # station 1 listens; mote 2 sleeps on a battery its first charge
        # empties, and wakes in 1 us
        nodes = (NodeSpec(address=1, role="bs", position=Position()),
                 NodeSpec(address=2, role="mote", position=Position(x=10.0),
                          battery_j=1e-15, mcu_wakeup_ns=100,
                          radio_turn_on_ns=900))
        sim = Simulator(Scenario(
            horizon_ns=10 ** 6, seed=1, radio=RadioConfig(),
            channel=ChannelParams(), nodes=nodes, app=AppSpec(kind="none")))
        sim.start_apps()
        return sim

    @pytest.mark.parametrize("withdrawn", ["none", "cancelled", "kept"])
    def test_not_run_counted_traced_or_logged(self, withdrawn):
        sim = self.simulator()
        station, mote = sim._services_for(1), sim._services_for(2)
        ran = []
        mote.wake_at(0)  # due at 1 us, its MCU wake-up's charge empties it
        station.call_at(5_000, lambda: ran.append("a"))
        if withdrawn != "none":  # scheduled last, so no other seq moves
            x = station.call_at(5_000, lambda: ran.append("x"))
            y = mote.call_at(2_000, lambda: ran.append("y"))
            if withdrawn == "cancelled":
                station.cancel(x)
                mote.cancel(y)
        sim.run_until(10 ** 6)
        assert sim.devices[2].ledger.depleted
        emptied = ["node 2 depleted at 1000 ns"]
        if withdrawn == "kept":
            assert ran == ["a", "x"]
            assert sim.log_lines == emptied + [
                "drop callback for depleted node 2"]
            return
        # the radio-on's radio-ready timer, the wake and "a"
        assert (ran, sim.event_count, sim.log_lines) == (["a"], 3, emptied)
        assert sim.trace_hash() == self.unwithdrawn_trace_hash()
        assert sim._withdrawn == set()

    def unwithdrawn_trace_hash(self):
        sim = self.simulator()
        station, mote = sim._services_for(1), sim._services_for(2)
        mote.wake_at(0)
        station.call_at(5_000, lambda: None)
        sim.run_until(10 ** 6)
        return sim.trace_hash()

    def test_same_ns_neighbours_keep_their_order(self):
        sim = self.simulator()
        station = sim._services_for(1)
        ran = []
        handles = {name: station.call_at(5_000, lambda n=name: ran.append(n))
                   for name in "vabxcd"}
        station.cancel(handles["v"])
        station.cancel(handles["x"])
        station.cancel(handles["d"])
        sim.run_until(10 ** 6)
        assert ran == ["a", "b", "c"]
        assert sim.event_count == 1 + 3

    # the data slot and the sleeper's radio-ready are 17.007 ms into a cycle
    @pytest.mark.parametrize("rx_timeout_ns, statuses, lora_rx_ns, mcu", [
        # a whole cycle's timeout ends at the next data slot, just before
        # it, so the sleeper, awake through that burst, is asleep there;
        # the last cycle's timeout is due past the horizon
        (10 ** 9, ["data-lost", "wake-timeout", "data-lost"],
         10 ** 9 + 10 ** 9 - 17_007_000, node.MCU_ACTIVE),
        (10 ** 8, ["data-lost"] * 3, 3 * 10 ** 8, node.MCU_SLEEP),
    ], ids=["one_cycle", "100_ms"])
    def test_rx_timeout_still_fires_when_the_data_is_lost(
            self, rx_timeout_ns, statuses, lora_rx_ns, mcu):
        scenario = power_profile_scenario(cycles=3)
        scenario = scenario._replace(
            app=scenario.app._replace(rx_timeout_ns=rx_timeout_ns))
        sim = Simulator(scenario, record_trace=False)
        sim.drivers[2].rx_done = lambda frame: None  # the sleeper hears none
        metrics = sim.run()
        assert [ex.outcome for ex in metrics.exchanges] == statuses
        sleeper = sim.devices[2]
        assert sleeper.mcu is mcu and not sleeper.ledger.depleted
        dwell = {label: time_ns for label, _p, time_ns, _e, _pct
                 in metrics.energy[1].rows}
        assert dwell["lora_rx"] == lora_rx_ns


class TestChannelClear:
    def test_busy_during_foreign_tx(self):
        scenario = multi_mote_scenario([Position(x=10.0)], period_s=1.0,
                                       horizon_s=3.0)
        sim = Simulator(scenario, record_trace=False)
        sim.start_apps()
        sim.run_until(1_050_000_000)  # mote tx in flight (starts ~1.001 s)
        assert sim.devices[2].radio is node.RADIO_TX
        assert not sim.drivers[1].channel_clear()
        sim.run_until(2 * 10 ** 9 - 1)
        assert sim.drivers[1].channel_clear()

    def test_busy_after_an_earlier_frame_was_pruned(self):
        scenario = multi_mote_scenario(
            [Position(x=10.0), Position(x=-10.0)], period_s=1.0,
            horizon_s=3.0, turn_ons_ms=[1.0, 500.0])
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        sim.start_apps()
        sim.run_until(1_600_000_000)
        first, second = started
        assert first.end_ns < second.start_ns <= sim.now < second.end_ns
        assert sim._on_air == [second]
        assert not sim.drivers[1].channel_clear()

    def test_clear_at_exactly_end_ns(self):
        scenario = multi_mote_scenario([Position(x=10.0)], period_s=1.0,
                                       horizon_s=3.0)
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        sim.start_apps()
        sim.run_until(1_500_000_000)
        (first,) = started
        end_ns = first.end_ns + 10 ** 9  # the next tick's frame
        seen = []

        def probe():
            seen.append((sim.now, len(sim._on_air),
                         sim.drivers[1].channel_clear()))

        # scheduled before the frame's TX_END, so they dispatch first
        sim.schedule(end_ns - 1, engine.CALLBACK, 1, probe)
        sim.schedule(end_ns, engine.CALLBACK, 1, probe)
        sim.run_until(2_500_000_000)
        assert started[1].end_ns == end_ns
        assert seen == [(end_ns - 1, 1, False), (end_ns, 1, True)]


def shadowed_wakeup_scenario():
    """Wake-up exchange under 4 dB shadowing near the WuRX's range, plus a
    second WuRX node with another address and a sink with no WuRX."""
    base = power_profile_scenario(cycles=12, distance_m=7.0)
    nodes = base.nodes + (
        NodeSpec(address=3, role="sleeper", position=Position(y=5.0),
                 wurx=WurxSpec(address=0x11)),
        NodeSpec(address=4, role="bs", position=Position(x=-30.0)),
    )
    return base._replace(nodes=nodes, seed=5,
                         channel=ChannelParams(shadowing_sigma_db=4.0))


class TestFrameFacts:
    """A frame's airtime and noise floor are worked out once per (sending
    driver's config, frame length), and its sender-to-dst distance once per
    link; a mid-run ``configure`` needs no invalidation."""

    def test_reconfigured_driver_sends_with_its_own_config(self,
                                                           monkeypatch):
        nodes = (NodeSpec(address=1, role="bs", position=Position()),
                 NodeSpec(address=2, role="initiator",
                          position=Position(x=100.0)))
        sim = Simulator(Scenario(
            horizon_ns=60 * 10 ** 9, seed=1, radio=RadioConfig(),
            channel=ChannelParams(noise_figure_db=4.5), nodes=nodes,
            app=AppSpec(kind="none")), record_trace=False)
        computed = []

        def counting(config, length):
            computed.append((config, length))
            return time_on_air(config, length)

        monkeypatch.setattr(engine, "time_on_air", counting)
        started = record_transmissions(sim)
        driver = sim.drivers[2]
        driver.on()
        sim.run_until(10 ** 9)  # the radio is ready after 1 ms
        base = driver.config
        sends = [(base, 22), (base._replace(spreading_factor=8), 22),
                 (base._replace(spreading_factor=8), 40),
                 (base._replace(bandwidth_hz=125_000), 40), (base, 22)]
        for config, length in sends:
            driver.configure(config)
            driver.send(bytes(length))
            sim.run_until(started[-1].end_ns)
        assert len(started) == len(sends)
        for frame, (config, length) in zip(started, sends):
            assert frame.end_ns - frame.start_ns == time_on_air(config, length)
            assert frame.noise_floor_dbm == noise_floor_dbm(
                config.bandwidth_hz, 4.5)
            assert frame.spreading_factor == config.spreading_factor
        # the first and last sends share their config and length
        assert computed == sends[:-1]

    def test_listeners_are_decided_in_address_order(self, monkeypatch):
        """Base stations 3, 2 and 1 enter rx in that order, yet each frame
        is decided at 1, then 2, then 3."""
        nodes = tuple(
            NodeSpec(address=address, role="bs", position=Position(y=y),
                     radio_turn_on_ns=turn_on_ms * 1_000_000)
            for address, y, turn_on_ms in ((1, 0.0, 300), (2, 40.0, 150),
                                           (3, -40.0, 1)))
        nodes += (NodeSpec(address=4, role="mote",
                           position=Position(x=100.0)),)
        scenario = Scenario(
            horizon_ns=3 * 10 ** 9, seed=1, radio=RadioConfig(),
            channel=ChannelParams(shadowing_sigma_db=2.0), nodes=nodes,
            app=AppSpec(kind="periodic", dst=1, payload_len=16,
                        period_ns=10 ** 9))
        order = []
        decide = channel.decide_reception

        def recording(frame, rx_addr, *rest):
            order.append(rx_addr)
            return decide(frame, rx_addr, *rest)

        monkeypatch.setattr(channel, "decide_reception", recording)
        sim = Simulator(scenario, record_trace=False)
        sim.start_apps()
        sim.run_until(400_000_000)
        assert list(sim._listeners) == [1, 2, 3]
        sim.run_until(scenario.horizon_ns)
        assert order == [1, 2, 3] * 2

    def test_listener_entering_rx_mid_frame_is_registered_and_decided(self):
        """Base station 1 enters rx while mote 2's frame is on air. That
        frame started before it listened, so it is not heard there; mote
        3's later, weaker frame overlaps it and loses to it there."""
        nodes = (
            NodeSpec(address=1, role="bs", position=Position(),
                     radio_turn_on_ns=1_100_000_000),
            NodeSpec(address=2, role="mote", position=Position(x=60.0)),
            NodeSpec(address=3, role="mote", position=Position(x=250.0),
                     radio_turn_on_ns=150_000_000))
        sim = Simulator(Scenario(
            horizon_ns=1_900_000_000, seed=1,
            radio=RadioConfig(spreading_factor=9, bandwidth_hz=125_000),
            channel=ChannelParams(), nodes=nodes,
            app=AppSpec(kind="periodic", dst=1, payload_len=16,
                        period_ns=10 ** 9)), record_trace=False,
            record_heard=True)
        started = record_transmissions(sim)
        metrics = sim.run()
        first, second = started
        assert first.start_ns < 1_100_000_000 < second.start_ns < first.end_ns
        assert 1 in sim._listeners
        assert [(p.src, p.outcome) for p in metrics.packets] == [
            (2, "not-listening"), (3, "collision")]
        assert [outcome.cause for outcome in sim.heard[3, 1]] == [
            "collision"]
        assert [p.distance_m for p in metrics.packets] == [60.0, 250.0]


class TestLinkCache:
    """The engine caches each link's mean path loss and draws only the
    shadowing per frame; values and draw order must match ``rssi_at``."""

    def test_frame_annotations_equal_rssi_at_bit_for_bit(self):
        from motesim.channel import noise_floor_dbm, rssi_at
        from oracles import snr_of
        scenario = dense_scenario(horizon_s=6.0)
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        sim.run()
        rng = random.Random(scenario.seed)
        params = scenario.channel
        addresses = sorted(sim.devices)
        assert len(started) > 20
        for frame in started:
            src = sim.devices[frame.src]
            receivers = [a for a in addresses if a != frame.src]
            assert list(frame.rssi_by_rx) == receivers
            assert frame.noise_floor_dbm == noise_floor_dbm(
                frame.bandwidth_hz, params.noise_figure_db)
            for rx_addr in receivers:
                rssi = rssi_at(scenario.radio.tx_power_dbm, src.position,
                               sim.devices[rx_addr].position, params, rng)
                assert frame.rssi_by_rx[rx_addr] == rssi
                assert rssi - frame.noise_floor_dbm == snr_of(
                    rssi, frame.bandwidth_hz, params.noise_figure_db)
        assert sim.rng.getstate() == rng.getstate()

    def test_unshadowed_run_draws_nothing(self):
        scenario = multi_mote_scenario(
            [Position(x=40.0), Position(x=-90.0, y=20.0), Position(y=300.0)],
            horizon_s=4.0, seed=11)
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        sim.run()
        assert len(started) == 9
        assert sim.rng.getstate() == random.Random(11).getstate()

    def test_transforms_only_the_links_that_are_read(self, monkeypatch):
        """Twenty motes under 4 dB shadowing, where only the base station
        listens: a frame does its Box-Muller step (one cos or sin call per
        deviate, plus the sine kept for the next frame) for the receivers
        that read it, not for all 19."""
        from motesim import channel
        counts = {"transforms": 0, "decisions": 0}

        def counting(fn, key):
            def counted(*args):
                counts[key] += 1
                return fn(*args)
            return counted

        monkeypatch.setattr(channel, "cos", counting(channel.cos,
                                                     "transforms"))
        monkeypatch.setattr(channel, "sin", counting(channel.sin,
                                                     "transforms"))
        monkeypatch.setattr(channel, "decide_reception", counting(
            channel.decide_reception, "decisions"))
        positions = [Position(x=60.0 * k * (-1) ** k, y=25.0 * (k % 5))
                     for k in range(1, 21)]
        scenario = multi_mote_scenario(
            positions, period_s=2.0, horizon_s=30.0, seed=21, sigma=4.0,
            turn_ons_ms=[1.0 + 37.0 * (k % 7) for k in range(20)])
        sim = Simulator(scenario, record_trace=False)
        started = record_transmissions(sim)
        sim.run()
        frames = len(started)
        assert frames >= 250
        ended = sum(frame.end_ns <= scenario.horizon_ns for frame in started)
        assert counts["decisions"] == ended
        assert counts["transforms"] <= 3 * frames

    # each layout below would need the undefined path loss of a zero-length
    # link at the named frame or burst; the scenario rejects it when built

    def test_coincident_nodes_raise_at_first_frame(self):
        with pytest.raises(ScenarioError,
                           match="node 1 shares the position of sender 2"):
            multi_mote_scenario([Position()])

    def test_coincident_wurx_node_raises_at_burst(self):
        base = power_profile_scenario(cycles=2)
        with pytest.raises(ScenarioError,
                           match="node 3 shares the position of sender 1"):
            base._replace(nodes=base.nodes + (
                NodeSpec(address=3, role="sleeper", position=Position(),
                         wurx=WurxSpec(address=0x11)),))

    def test_coincident_node_without_wurx_raises_at_data_frame(self):
        # bursts reach WuRX nodes only, so the data frame after the burst
        # would be the first to need the coincident link
        base = power_profile_scenario(cycles=2)
        with pytest.raises(ScenarioError,
                           match="node 3 shares the position of sender 1"):
            base._replace(nodes=base.nodes + (
                NodeSpec(address=3, role="bs", position=Position()),))

    def test_path_loss_computed_once_per_link(self, monkeypatch):
        from motesim import channel
        calls = []
        original = channel.path_loss_db

        def counting(distance_m, params):
            calls.append(distance_m)
            return original(distance_m, params)

        monkeypatch.setattr(channel, "path_loss_db", counting)
        positions = [Position(x=40.0), Position(x=-90.0, y=20.0),
                     Position(x=150.0), Position(y=300.0)]
        nodes = len(positions) + 1
        counts = []
        for horizon_s in (3.0, 9.0):
            calls.clear()
            sim = Simulator(multi_mote_scenario(positions, horizon_s=horizon_s,
                                                sigma=3.0),
                            record_trace=False)
            started = record_transmissions(sim)
            sim.run()
            assert len(started) >= len(positions) * (horizon_s - 1)
            counts.append(len(calls))
        assert 0 < counts[0] <= nodes * (nodes - 1)
        assert counts[0] == counts[1]


class TestShadowedWakeupDigests:
    """Pinned on the engine that called ``rssi_at`` for every burst and
    frame: the cached links must reproduce its draws exactly."""

    def test_shadowed_wakeup_outputs(self, tmp_path):
        metrics = run(shadowed_wakeup_scenario())
        # re-pinned when a burst became one event, when a WuRX interrupt
        # became a wake, when each cycle came to schedule the next and
        # withdraw its rx timeout, and when the interrupt came to hold a
        # timer wake; the files below did not move
        assert metrics.trace_hash == (
            "1ca8821f9ef562065ff42aa9de53e981ed961a9b3d711e0efd06e83e356b2dc4")
        outcomes = [e.outcome for e in metrics.exchanges]
        assert outcomes.count("wake-timeout") == 2
        assert outcomes.count("completed") == 10
        digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
                   for path in emit(metrics, "csv", tmp_path)}
        assert digests == {
            "packets.csv": "341eceb7e7194c59615bea0e5c5cbb6ec0b0a0d3"
                           "c8384c11306bd4f3d7d3ba31",
            "links.csv": "b94af88c1b012dfc3688d274c6a36e84ea7e4459"
                         "645c6b30f4b762cc7aba4dea",
            "energy.csv": "2ce517385692f6c58c0ae7bd9d0a7c207846373c"
                          "62d7d680b51ccf06239ede91",
            "exchanges.csv": "07e564fe4ec695182a85532d9af2979d5286794a"
                             "5e44a1fdbb67eebf61808d1b",
        }
