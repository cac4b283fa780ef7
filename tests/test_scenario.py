import copy
import pathlib

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from motesim import (ChannelParams, ConfigError, Position, RadioConfig,
                     Scenario, ScenarioError, emit, load, run,
                     scenario_hash)
from motesim.cli import main
from motesim.node import POWER_KEYS, ROLES, power_table
from motesim.scenario import (AppSpec, NodeSpec, WurxSpec, from_dict,
                              range_point_scenario)

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / \
    "example.yaml"


def example_dict():
    return yaml.safe_load(EXAMPLE.read_text())


def test_shipped_example_loads_and_runs():
    scenario = load(EXAMPLE)
    assert scenario.horizon_ns == 3_601_000_000_000
    assert scenario.radio.spreading_factor == 12
    assert scenario.channel.path_loss_exponent == 3.7
    short = Scenario(horizon_ns=25 * 10 ** 9, seed=scenario.seed,
                     radio=scenario.radio, channel=scenario.channel,
                     nodes=scenario.nodes, app=scenario.app)
    metrics = run(short)
    assert metrics.link(2, 1).pdr == 1.0


def test_hash_stable_and_sensitive():
    a = load(EXAMPLE)
    b = load(EXAMPLE)
    assert scenario_hash(a) == scenario_hash(b)
    c = a._replace(seed=a.seed + 1)
    assert scenario_hash(c) != scenario_hash(a)


class TestUnknownKeys:
    @pytest.mark.parametrize("mutate", [
        lambda d: d.__setitem__("extra_section", {}),
        lambda d: d["sim"].__setitem__("horizonn_s", 1.0),
        lambda d: d["radio"].__setitem__("spreading", 12),
        lambda d: d["channel"].__setitem__("pathloss", 3.0),
        lambda d: d["nodes"][0].__setitem__("adress", 9),
        lambda d: d["app"].__setitem__("perriod_s", 1.0),
        lambda d: d["nodes"][1].__setitem__(
            "power", {"sleep_watts": 1e-6}),
    ])
    def test_typo_anywhere_rejected(self, mutate):
        raw = example_dict()
        mutate(raw)
        with pytest.raises(ScenarioError):
            from_dict(raw)


class TestValidation:
    def test_empty_nodes(self):
        raw = example_dict()
        raw["nodes"] = []
        with pytest.raises(ScenarioError, match="at least one node"):
            from_dict(raw)

    def test_duplicate_addresses(self):
        raw = example_dict()
        raw["nodes"][1]["address"] = 1
        with pytest.raises(ScenarioError, match="unique"):
            from_dict(raw)

    def test_nonpositive_horizon(self):
        raw = example_dict()
        raw["sim"]["horizon_s"] = 0.0
        with pytest.raises(ScenarioError, match="horizon"):
            from_dict(raw)

    def test_period_must_exceed_airtime(self):
        raw = example_dict()
        raw["app"]["period_s"] = 0.3  # one 22 B frame lasts 362.496 ms
        with pytest.raises(ScenarioError, match="airtime"):
            from_dict(raw)

    # a mote wakes in 7 us and turns its radio on in 1 ms before each
    # frame; a bs sends from rx. A period equal to the cycle skips every
    # other tick.
    @pytest.mark.parametrize("role, period_s, rejected", [
        ("mote", 0.363503, True), ("mote", 0.363503001, False),
        ("bs", 0.362496, True), ("bs", 0.362496001, False),
    ], ids=["mote-cycle", "mote-past-cycle", "bs-airtime",
            "bs-past-airtime"])
    def test_period_must_exceed_the_senders_cycle(self, role, period_s,
                                                  rejected):
        raw = example_dict()
        raw["nodes"][1]["role"] = role  # node 2, the sender
        raw["app"]["period_s"] = period_s
        if rejected:
            with pytest.raises(ScenarioError, match="node 2's send cycle"):
                from_dict(raw)
        else:
            assert from_dict(raw).app.period_ns == round(period_s * 1e9)

    # a bs sender turns its radio on at t = 0 and sends at its first tick,
    # one period later; at a tie its radio_ready, scheduled first, fires
    # first
    @pytest.mark.parametrize("turn_on_ms, rejected", [
        (10_000.000001, True), (10_000.0, False),
    ], ids=["turn-on-past-first-tick", "turn-on-at-first-tick"])
    def test_bs_sender_ready_at_its_first_tick(self, turn_on_ms, rejected):
        raw = example_dict()
        raw["sim"]["horizon_s"] = 21.0
        raw["nodes"][1].update(role="bs", radio_turn_on_ms=turn_on_ms)
        if rejected:
            with pytest.raises(ScenarioError,
                               match="at least node 2's radio turn-on"):
                from_dict(raw)
        else:
            metrics = run(from_dict(raw))
            assert [(p.t_start_ns, p.outcome) for p in metrics.packets] == [
                (10 ** 10, "delivered"), (2 * 10 ** 10, "delivered")]

    def test_bad_radio_range(self):
        raw = example_dict()
        raw["radio"]["spreading_factor"] = 13
        with pytest.raises(ScenarioError):
            from_dict(raw)

    def test_sleeper_needs_wurx(self):
        raw = example_dict()
        raw["nodes"][1]["role"] = "sleeper"
        with pytest.raises(ScenarioError, match="wurx"):
            from_dict(raw)

    def test_app_addresses_must_exist(self):
        raw = example_dict()
        raw["app"]["dst"] = 99
        with pytest.raises(ScenarioError):
            from_dict(raw)

    def test_wrong_type_reported(self):
        raw = example_dict()
        raw["sim"]["seed"] = "forty-two"
        with pytest.raises(ScenarioError, match="sim.seed"):
            from_dict(raw)

    def test_preset_guards(self):
        from motesim.scenario import power_profile_scenario
        with pytest.raises(ScenarioError):
            range_point_scenario(distance_m=0.0)
        with pytest.raises(ScenarioError):
            range_point_scenario(distance_m=10.0, packets=0)
        # the preset's scenario checks itself when it is built
        with pytest.raises(ScenarioError, match="app.cycles must be >= 1"):
            power_profile_scenario(cycles=0)
        # a negative wait once scheduled a callback into the past mid-run
        with pytest.raises(ScenarioError,
                           match="app.linger_ms/rx_timeout_ms must be >= 0"):
            power_profile_scenario(linger_ms=-5.0)
        base = power_profile_scenario()
        for field in ("linger_ns", "rx_timeout_ns"):
            with pytest.raises(ScenarioError, match="must be >= 0"):
                base._replace(app=base.app._replace(**{field: -5_000_000}))

    def test_exchange_cycle_must_fit_period(self):
        from motesim.scenario import power_profile_scenario
        with pytest.raises(ScenarioError, match="cycle_period_s"):
            power_profile_scenario(cycles=2, cycle_period_s=0.3)


class TestWakeupExchangeNodes:
    """The initiator and target of a wake-up exchange are checked at load,
    not found out by the run."""

    def test_initiator_that_is_its_own_target_rejected(self):
        raw = {"sim": {"horizon_s": 10.0, "seed": 1},
               "nodes": [{"address": 1, "role": "sleeper",
                          "wurx": {"address": 7}}],
               "app": {"kind": "wakeup_exchange", "initiator": 1,
                       "target": 1, "cycles": 2, "cycle_period_s": 2.0}}
        with pytest.raises(ScenarioError, match="initiator and target must "
                                                "differ"):
            from_dict(raw)

    @pytest.mark.parametrize("role, exit_code", [
        ("mote", 1), ("sleeper", 1), ("initiator", 0), ("bs", 0)])
    def test_initiator_must_start_awake(self, role, exit_code, tmp_path,
                                        capsys):
        # only bs and initiator nodes start with the MCU awake, and the
        # first cycle sends its burst at once
        path = tmp_path / "exchange.yaml"
        path.write_text(yaml.safe_dump({
            "sim": {"horizon_s": 10.0, "seed": 1},
            "nodes": [{"address": 1, "role": role, "wurx": {"address": 9}},
                      {"address": 2, "role": "sleeper",
                       "position": {"x": 5.0}, "wurx": {"address": 7}}],
            "app": {"kind": "wakeup_exchange", "initiator": 1, "target": 2,
                    "cycles": 2, "cycle_period_s": 2.0}}))
        assert main(["run", str(path), "--validate-only"]) == exit_code
        assert main(["run", str(path), "--out-dir",
                     str(tmp_path / "out")]) == exit_code
        if exit_code:
            assert "scenario error: app.initiator must start awake: a bs " \
                   "or an initiator node" in capsys.readouterr().err

    @pytest.mark.parametrize("role, x, exit_code", [
        ("bs", 0.0, 1),  # at the initiator's position: bursts and data
        ("sleeper", 0.0, 1),  # reach it from zero distance
        ("bs", 2.0, 0),  # at the target's position: it only listens
    ])
    def test_node_at_the_initiators_position_rejected(self, role, x,
                                                      exit_code, tmp_path,
                                                      capsys):
        path = tmp_path / "exchange.yaml"
        path.write_text(yaml.safe_dump({
            "sim": {"horizon_s": 5.0, "seed": 1},
            "nodes": [{"address": 1, "role": "initiator"},
                      {"address": 2, "role": "sleeper", "position": {"x": 2.0},
                       "wurx": {"address": 7}},
                      {"address": 3, "role": role, "position": {"x": x},
                       "wurx": {"address": 9}}],
            "app": {"kind": "wakeup_exchange", "initiator": 1, "target": 2,
                    "cycles": 2, "cycle_period_s": 1.0}}))
        assert main(["run", str(path), "--validate-only"]) == exit_code
        assert main(["run", str(path), "--out-dir",
                     str(tmp_path / "out")]) == exit_code
        if exit_code:
            assert "scenario error: node 3 shares the position of sender 1" \
                in capsys.readouterr().err

    @pytest.mark.parametrize("cycles, exit_code", [(0, 1), (1, 0)])
    def test_exchange_needs_a_cycle(self, cycles, exit_code, tmp_path,
                                    capsys):
        # with no cycle nothing is sent, so the other app keys change nothing
        path = tmp_path / "exchange.yaml"
        path.write_text(yaml.safe_dump({
            "sim": {"horizon_s": 5.0, "seed": 1},
            "nodes": [{"address": 1, "role": "initiator"},
                      {"address": 2, "role": "sleeper", "position": {"x": 2.0},
                       "wurx": {"address": 7}}],
            "app": {"kind": "wakeup_exchange", "initiator": 1, "target": 2,
                    "cycles": cycles, "cycle_period_s": 1.0}}))
        assert main(["run", str(path), "--validate-only"]) == exit_code
        if exit_code:
            assert "scenario error: app.cycles must be >= 1" in \
                capsys.readouterr().err

    @pytest.mark.parametrize("key, value, exit_code", [
        ("linger_ms", -5.0, 1), ("rx_timeout_ms", -5.0, 1),
        ("linger_ms", 0.0, 0), ("rx_timeout_ms", 0.0, 0)])
    def test_negative_wait_rejected(self, key, value, exit_code, tmp_path,
                                    capsys):
        # a negative wait scheduled the sleeper's callback into the past
        # mid-run; a zero rx timeout gives up at once, so the data is lost
        path = tmp_path / "exchange.yaml"
        path.write_text(yaml.safe_dump({
            "sim": {"horizon_s": 3.0, "seed": 1},
            "nodes": [{"address": 1, "role": "initiator"},
                      {"address": 2, "role": "sleeper", "position": {"x": 2.0},
                       "wurx": {"address": 7}}],
            "app": {"kind": "wakeup_exchange", "initiator": 1, "target": 2,
                    "cycles": 2, "cycle_period_s": 1.0, key: value}}))
        assert main(["run", str(path), "--validate-only"]) == exit_code
        assert main(["run", str(path), "--out-dir",
                     str(tmp_path / "out")]) == exit_code
        if exit_code:
            assert "scenario error: app.linger_ms/rx_timeout_ms must be " \
                   ">= 0" in capsys.readouterr().err
        else:
            assert [e.outcome for e in run(load(path)).exchanges] == [
                "data-lost" if key == "rx_timeout_ms" else "completed"] * 2


    @pytest.mark.parametrize("role, exit_code", [
        ("mote", 0), ("sleeper", 0), ("initiator", 1), ("bs", 1)])
    def test_target_must_start_asleep(self, role, exit_code, tmp_path,
                                      capsys):
        # a target that starts awake never sleeps, so its WuRX never wakes
        # it and every cycle's data frame is lost
        path = tmp_path / "exchange.yaml"
        path.write_text(yaml.safe_dump({
            "sim": {"horizon_s": 5.0, "seed": 1},
            "nodes": [{"address": 1, "role": "initiator"},
                      {"address": 2, "role": role, "position": {"x": 2.0},
                       "wurx": {"address": 7}}],
            "app": {"kind": "wakeup_exchange", "initiator": 1, "target": 2,
                    "cycles": 3, "cycle_period_s": 1.0}}))
        assert main(["run", str(path), "--validate-only"]) == exit_code
        assert main(["run", str(path), "--out-dir",
                     str(tmp_path / "out")]) == exit_code
        if exit_code:
            assert "scenario error: app.target must start asleep: a mote " \
                   "or a sleeper node" in capsys.readouterr().err
        else:
            assert [e.outcome for e in run(load(path)).exchanges] == [
                "completed"] * 3


class TestPeriodicSenders:
    def test_omitted_src_means_every_mote_sends(self):
        raw = example_dict()
        del raw["app"]["src"]
        raw["nodes"].append({"address": 3, "role": "mote",
                             "position": {"x": -300.0}})
        raw["sim"]["horizon_s"] = 25.0
        scenario = from_dict(raw)
        assert scenario.app.src is None
        metrics = run(scenario, record_trace=False)
        assert set(metrics.links) == {(2, 1), (3, 1)}
        assert metrics.link(2, 1).sent == metrics.link(3, 1).sent == 2

    @pytest.mark.parametrize("role, app, error", [
        # src is its own dst
        ("mote", {"src": 2, "dst": 2}, "app.dst must not be a sender"),
        # src omitted, so mote 2 sends, to itself
        ("mote", {"dst": 2}, "app.dst must not be a sender"),
        # src omitted and no mote: nothing sends, so period_s and
        # payload_len would change nothing
        ("bs", {"dst": 1, "payload_len": 8},
         "app: periodic needs a sender"),
    ], ids=["src-is-dst", "omitted-src-mote-dst", "no-sender"])
    def test_sender_that_is_its_own_dst_rejected(self, role, app, error,
                                                 tmp_path, capsys):
        # a sender that is its own dst would send nothing, skip its ticks
        # and stay awake
        path = tmp_path / "self.yaml"
        path.write_text(yaml.safe_dump({
            "sim": {"horizon_s": 60.0, "seed": 1},
            "nodes": [{"address": 1, "role": "bs"},
                      {"address": 2, "role": role,
                       "position": {"x": 100.0}}],
            "app": {"kind": "periodic", "period_s": 10.0, **app}}))
        with pytest.raises(ScenarioError, match=error):
            load(path)
        assert main(["run", str(path), "--validate-only"]) == 1
        assert f"scenario error: {error}" in capsys.readouterr().err

    @pytest.mark.parametrize("nodes, app, error", [
        # a mote at its base station's position
        ([("bs", {}), ("mote", {})], {"src": 2},
         "node 1 shares the position of sender 2"),
        # src omitted, so both motes send
        ([("bs", {}), ("mote", {"x": 80.0}), ("mote", {"x": 80.0})], {},
         "node 3 shares the position of sender 2"),
    ], ids=["sender-at-its-dst", "two-senders"])
    def test_node_at_a_senders_position_rejected(self, nodes, app, error,
                                                 tmp_path, capsys):
        # path loss is undefined at zero distance, so the run would fail at
        # the sender's first frame
        path = tmp_path / "colocated.yaml"
        path.write_text(yaml.safe_dump({
            "sim": {"horizon_s": 15.0, "seed": 1},
            "nodes": [{"address": address, "role": role, "position": at}
                      for address, (role, at) in enumerate(nodes, 1)],
            "app": {"kind": "periodic", "dst": 1, "period_s": 10.0, **app}}))
        assert main(["run", str(path), "--validate-only"]) == 1
        assert f"scenario error: {error}" in capsys.readouterr().err

    def test_omitted_dst_rejected(self):
        raw = example_dict()
        del raw["app"]["dst"]
        with pytest.raises(ScenarioError, match="requires dst"):
            from_dict(raw)
        del raw["app"]["src"]
        with pytest.raises(ScenarioError, match="requires dst"):
            from_dict(raw)


class TestSequenceNumberLimit:
    """A sender numbers its frames in the link header's 16-bit seqno field,
    so a scenario in which one could send a 65,536th frame is rejected at
    build, not by a ``struct.error`` in the middle of the run."""

    ERROR = "16-bit link-header sequence number"

    def test_periodic_sender_at_the_limit(self):
        # the sweep's horizon ends just after its last frame, so it holds
        # exactly ``packets`` ticks
        with pytest.raises(ScenarioError, match=self.ERROR):
            range_point_scenario(distance_m=50.0, packets=65_536)
        metrics = run(range_point_scenario(distance_m=50.0, packets=65_535),
                      record_trace=False)
        assert metrics.link(2, 1).sent == 65_535

    def test_exchange_cycles_at_the_limit(self):
        from motesim.scenario import power_profile_scenario
        assert power_profile_scenario(cycles=65_535).app.cycles == 65_535
        with pytest.raises(ScenarioError, match=self.ERROR):
            power_profile_scenario(cycles=65_536)

    def test_fast_sender_over_a_long_horizon_rejected(self, tmp_path, capsys):
        # SF7 / 125 kHz, a 0-byte payload every 50 ms for 3,300 s: 66,000
        # frames, whose 65,536th used to end the run in a traceback
        path = tmp_path / "fast.yaml"
        path.write_text(yaml.safe_dump({
            "sim": {"horizon_s": 3300.0, "seed": 1},
            "radio": {"spreading_factor": 7, "bandwidth_hz": 125_000},
            "nodes": [{"address": 1, "role": "bs"},
                      {"address": 2, "role": "mote",
                       "position": {"x": 100.0}}],
            "app": {"kind": "periodic", "src": 2, "dst": 1,
                    "payload_len": 0, "period_s": 0.05}}))
        with pytest.raises(ScenarioError, match="up to 66000 frames"):
            load(path)
        assert main(["run", str(path), "--out-dir",
                     str(tmp_path / "out")]) == 1
        assert self.ERROR in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestYamlLoading:
    def test_import_leaves_yaml_unloaded(self):
        import os
        import subprocess
        import sys
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, motesim; "
                "assert 'yaml' not in sys.modules, 'yaml imported'")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})

    def test_import_leaves_dataclasses_and_inspect_unloaded(self):
        # the records are named tuples and slotted classes, so a process
        # that imports the package and its CLI pays for neither module
        import os
        import subprocess
        import sys
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        code = ("import sys, motesim, motesim.cli; "
                "loaded = {'dataclasses', 'inspect'} & set(sys.modules); "
                "assert not loaded, loaded")
        subprocess.run([sys.executable, "-c", code], check=True,
                       env={**os.environ, "PYTHONPATH": str(src)})

    def test_invalid_yaml_is_a_scenario_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("sim: [horizon_s: 1.0\n")
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load(bad)


# every key of every section set, each to a value other than its default
FULL = {
    "sim": {"horizon_s": 7.5, "seed": 977},
    "radio": {"frequency_hz": 915e6, "spreading_factor": 9,
              "bandwidth_hz": 250_000, "coding_rate": 7,
              "tx_power_dbm": 11.5, "preamble_symbols": 10,
              "explicit_header": False, "crc_on": False,
              "low_data_rate_optimize": True},
    "channel": {"path_loss_exponent": 3.2, "reference_loss_at_1m_db": 33.5,
                "shadowing_sigma_db": 2.5, "noise_figure_db": 7.0,
                "capture_threshold_db": 4.5},
    "nodes": [
        {"address": 5, "role": "initiator",
         "position": {"x": 1.5, "y": -2.25, "z": 3.0},
         "power": {"sleep_w": 2.5e-6, "lora_tx_w": 0.21, "lora_rx_w": 0.045,
                   "mcu_active_w": 3.3e-3},
         "battery_j": 250.0, "harvest_rate_w": 2e-3,
         "harvest_efficiency": 0.75, "radio_turn_on_ms": 1.5,
         "mcu_wakeup_latency_us": 9.0},
        {"address": 9, "role": "sleeper",
         "position": {"x": -0.5, "y": 1.0, "z": 1.25},
         "wurx": {"address": 0x5A, "sensitivity_dbm": -55.0,
                  "bit_rate_bps": 800.0, "preamble_bits": 6,
                  "listen_power_w": 2.2e-6, "decode_power_w": 3.1e-4},
         "battery_j": 40.0, "harvest_rate_w": 5e-4,
         "harvest_efficiency": 0.8, "radio_turn_on_ms": 2.0,
         "mcu_wakeup_latency_us": 12.0},
    ],
    "app": {"kind": "wakeup_exchange", "payload_len": 12, "initiator": 5,
            "target": 9, "cycles": 3, "cycle_period_s": 2.0,
            "linger_ms": 15.0, "rx_timeout_ms": 400.0},
}

# (record, section name in error messages, path to the section in FULL)
FIELD_SECTIONS = [
    (RadioConfig, "radio", ("radio",)),
    (ChannelParams, "channel", ("channel",)),
    (WurxSpec, "nodes[1].wurx", ("nodes", 1, "wurx")),
    (Position, "nodes[1].position", ("nodes", 1, "position")),
]


def section_of(raw, path):
    for step in path:
        raw = raw[step]
    return raw


def built_section(scenario, where):
    return {"radio": scenario.radio, "channel": scenario.channel,
            "nodes[1].wurx": scenario.node(9).wurx,
            "nodes[1].position": scenario.node(9).position}[where]


def test_harvest_depletion_file_hash_pinned():
    # the depletion scenario's one source, which tests/test_engine.py loads
    scenario = load(EXAMPLE.with_name("harvest_depletion.yaml"))
    assert scenario_hash(scenario) == "c27ccfb4137588c6"
    assert [(n.battery_j, n.harvest_rate_w) for n in scenario.nodes] == [
        (1.0e4, 0.01), (0.40, 0.002), (1.0e4, 0.001), (1e-6, 0.0)]


def test_hash_and_header_pinned_for_non_default_scenario(tmp_path):
    scenario = from_dict(copy.deepcopy(FULL))
    assert scenario_hash(scenario) == "4aedf243ebffe78a"
    metrics = run(scenario)
    assert [e.outcome for e in metrics.exchanges] == ["completed"] * 3
    packets_csv = emit(metrics, "csv", tmp_path)[0]
    assert packets_csv.read_text().splitlines()[:2] == [
        "# motesim report format=1",
        "# bandwidth_hz=250000 capture_threshold_db=4.5 coding_rate=7 "
        "link_header_version=1 mcu_active_w_default=0.0024 "
        "noise_figure_db=7.0 path_loss_exponent=3.2 preamble_symbols=10 "
        "radio_turn_on_ns_default=1000000 reference_loss_at_1m_db=33.5 "
        "scenario=4aedf243ebffe78a seed=977 sensitivity_table_version=1 "
        "shadowing_sigma_db=2.5 spreading_factor=9 supply_voltage_v=3.0 "
        "tx_power_dbm=11.5"]


def test_sleeper_charged_its_wurx_blocks_decode_power():
    # the wurx block's decode_power_w is the one key for it; the power
    # block has none
    raw = copy.deepcopy(FULL)
    raw["nodes"][1]["power"] = {"wurx_decode_w": 1e-6}
    with pytest.raises(ScenarioError, match="wurx_decode_w"):
        from_dict(raw)
    scenario = from_dict(copy.deepcopy(FULL))
    spec = scenario.node(9)
    with pytest.raises(ConfigError, match="power_w keys must be among"):
        spec._replace(power_w={"wurx_decode": 1e-6})
    assert power_table(spec)["wurx_decode"] == spec.wurx.decode_power_w
    metrics = run(scenario)
    (sleeper,) = [e for e in metrics.energy if e.address == 9]
    (row,) = [r for r in sleeper.rows if r[0] == "wurx_decode"]
    _label, power_w, time_ns, energy_j, _pct = row
    assert power_w == FULL["nodes"][1]["wurx"]["decode_power_w"]
    assert time_ns > 0
    assert energy_j == pytest.approx(power_w * time_ns / 1e9)


# power figures on both sides of each check: negative, zero, the defaults
# (so sleep can equal mcu_active) and any other finite value
POWER_FIGURES = st.one_of(
    st.sampled_from((-1e-3, 0.0, 1.83e-6, 284e-6, 2.4e-3, 0.050, 0.240)),
    st.floats(-1.0, 1.0, allow_nan=False))


# a wurx block's fields, or none, with each field on both sides of its
# checks
WURX_BLOCKS = st.none() | st.fixed_dictionaries(dict(
    address=st.sampled_from((-1, 0, 0x2A, 255, 256)),
    preamble_bits=st.sampled_from((-1, 0, 8)),
    bit_rate_bps=st.sampled_from((-1.0, 0.0, 1e-3, 1000.0, 2000.0)),
    listen_power_w=POWER_FIGURES, decode_power_w=POWER_FIGURES))


def verdict(build):
    """The text of the ``ConfigError`` that ``build()`` raises, or None."""
    try:
        build()
    except ConfigError as exc:
        return str(exc)
    return None


@settings(max_examples=300, deadline=None)
@given(role=st.sampled_from(ROLES + ("gateway",)),
       battery_j=st.floats(-1.0, 2e4), harvest_rate_w=st.floats(-1.0, 1.0),
       harvest_efficiency=st.floats(-0.5, 1.5),
       mcu_wakeup_ns=st.integers(-10, 10 ** 7),
       radio_turn_on_ns=st.integers(-10, 10 ** 7),
       power_w=st.dictionaries(st.sampled_from(POWER_KEYS), POWER_FIGURES),
       wurx=WURX_BLOCKS)
@example(role="mote", battery_j=1e4, harvest_rate_w=0.0,
         harvest_efficiency=0.9, mcu_wakeup_ns=7_000,
         radio_turn_on_ns=1_000_000,
         power_w={"sleep": 2.4e-3, "mcu_active": 2.4e-3}, wurx=None)
@example(role="mote", battery_j=-1.0, harvest_rate_w=0.0,
         harvest_efficiency=0.9, mcu_wakeup_ns=7_000,
         radio_turn_on_ns=1_000_000, power_w={"lora_rx": -1.0}, wurx=None)
@example(role="mote", battery_j=1e4, harvest_rate_w=0.0,
         harvest_efficiency=0.9, mcu_wakeup_ns=7_000,
         radio_turn_on_ns=1_000_000, power_w={},
         wurx={"address": 0x2A, "bit_rate_bps": 2000.0})
@example(role="sleeper", battery_j=1e4, harvest_rate_w=0.0,
         harvest_efficiency=0.9, mcu_wakeup_ns=7_000,
         radio_turn_on_ns=1_000_000, power_w={}, wurx=None)
def test_validate_rejects_exactly_what_the_build_rejects(wurx, **fields):
    # one verdict and one message, whichever way the node is built; a
    # file's error adds the node it is in
    def built():
        return NodeSpec(address=3, position=Position(),
                        wurx=None if wurx is None else WurxSpec(**wurx),
                        **fields)

    def replaced():
        return NodeSpec(address=3, role="mote", position=Position())._replace(
            wurx=None if wurx is None else WurxSpec(**wurx), **fields)

    def loaded():
        node = {"address": 3, "role": fields["role"],
                "battery_j": fields["battery_j"],
                "harvest_rate_w": fields["harvest_rate_w"],
                "harvest_efficiency": fields["harvest_efficiency"],
                "mcu_wakeup_latency_us": fields["mcu_wakeup_ns"] / 1e3,
                "radio_turn_on_ms": fields["radio_turn_on_ns"] / 1e6,
                "power": {f"{label}_w": power
                          for label, power in fields["power_w"].items()}}
        if wurx is not None:
            node["wurx"] = wurx
        return from_dict({"sim": {"horizon_s": 1.0}, "nodes": [node],
                          "app": {"kind": "none"}})

    message = verdict(built)
    assert verdict(replaced) == message
    assert verdict(loaded) == (None if message is None
                               else f"node 3: {message}")


class TestFieldSections:
    """Radio, channel, wurx and position keys against their records."""

    @pytest.mark.parametrize("cls, where, path", FIELD_SECTIONS)
    def test_every_key_lands_in_its_dataclass(self, cls, where, path):
        section = section_of(FULL, path)
        for name in cls._fields:
            assert section[name] != cls._field_defaults.get(name), name
        built = built_section(from_dict(copy.deepcopy(FULL)), where)
        assert built._asdict() == section

    @pytest.mark.parametrize("cls, where, path", FIELD_SECTIONS)
    def test_omitted_keys_take_the_defaults(self, cls, where, path):
        required = {"address": 0x5A} if cls is WurxSpec else {}
        for key, value in section_of(FULL, path).items():
            raw = copy.deepcopy(FULL)
            kept = {**required, key: value}
            section_of(raw, path[:-1])[path[-1]] = kept
            assert built_section(from_dict(raw), where) == cls(**kept)

    def test_omitted_sections_take_the_defaults(self):
        raw = copy.deepcopy(FULL)
        del raw["radio"], raw["channel"], raw["nodes"][1]["position"]
        scenario = from_dict(raw)
        assert scenario.radio == RadioConfig()
        assert scenario.channel == ChannelParams()
        assert scenario.node(9).position == Position()

    def test_wurx_address_is_required(self):
        raw = copy.deepcopy(FULL)
        del raw["nodes"][1]["wurx"]["address"]
        with pytest.raises(ScenarioError) as info:
            from_dict(raw)
        assert "missing required key nodes[1].wurx.address" in str(info.value)

    @pytest.mark.parametrize("cls, where, path", FIELD_SECTIONS)
    def test_bool_for_a_number_rejected(self, cls, where, path):
        for key, value in section_of(FULL, path).items():
            if isinstance(value, bool):
                continue
            raw = copy.deepcopy(FULL)
            section_of(raw, path)[key] = True
            with pytest.raises(ScenarioError) as info:
                from_dict(raw)
            assert (f"{where}.{key} must be {type(value).__name__}, got bool"
                    in str(info.value))


class TestCodeBuiltRecordsCheckThemselves:
    """Inputs that only the file loader once rejected: built in code they
    ran, or failed mid-run. Each record now refuses them when it is built
    and through ``_replace``, so no run can start."""

    VALID_NODE = NodeSpec(address=2, role="mote", position=Position(x=50.0))
    NODE_GAPS = {
        # once struct.error mid-run, packing the link header
        "address-70000": (dict(address=70000),
                          "address 70000 must fit in 16 bits"),
        # once a run that delivered 0
        "role-gateway": (dict(role="gateway"), "role must be one of"),
        "sleeper-without-wurx": (dict(role="sleeper"),
                                 "role 'sleeper' requires a wurx block"),
        # once reported at 5.0 W while the ledger charged the duty's power
        "wub_tx-power-key": (dict(power_w={"wub_tx": 5.0}),
                             "power_w keys must be among"),
    }

    @pytest.mark.parametrize("fields, message", NODE_GAPS.values(),
                             ids=NODE_GAPS)
    def test_node(self, fields, message):
        with pytest.raises(ConfigError, match=message):
            NodeSpec(**{**self.VALID_NODE._asdict(), **fields})
        with pytest.raises(ConfigError, match=message):
            self.VALID_NODE._replace(**fields)

    def test_app_kind(self):
        # once a run of 0 events
        valid = range_point_scenario(distance_m=50.0, packets=1)
        bogus = AppSpec(kind="bogus")
        with pytest.raises(ConfigError, match="app.kind must be one of"):
            Scenario(*valid[:-1], bogus)
        with pytest.raises(ConfigError, match="app.kind must be one of"):
            valid._replace(app=bogus)


class TestWakeupBlockValidation:
    """A wurx block whose burst cannot be sent, or whose listen power is
    not below its decode power, is rejected at load."""

    CASES = [("bit_rate_bps", 0), ("bit_rate_bps", 2000),
             ("address", 300), ("preamble_bits", -9),
             ("listen_power_w", 1e-3), ("decode_power_w", 2.2e-6)]

    @staticmethod
    def with_wurx(key, value):
        raw = copy.deepcopy(FULL)
        raw["nodes"][1]["wurx"][key] = value
        return raw

    @pytest.mark.parametrize("key, value", CASES)
    def test_scenario_error_at_load(self, key, value):
        with pytest.raises(ScenarioError, match="node 9: wurx"):
            from_dict(self.with_wurx(key, value))

    @pytest.mark.parametrize("key, value", CASES)
    def test_library_built_mote_rejects_it(self, key, value):
        # the block checks itself, built or replaced
        wurx = from_dict(copy.deepcopy(FULL)).node(9).wurx
        with pytest.raises(ConfigError, match="^wurx: "):
            WurxSpec(**{**wurx._asdict(), key: value})
        with pytest.raises(ConfigError, match="^wurx: "):
            wurx._replace(**{key: value})

    @pytest.mark.parametrize("key, value", CASES)
    def test_validate_only_exits_1(self, key, value, tmp_path, capsys):
        path = tmp_path / "bad_wurx.yaml"
        path.write_text(yaml.safe_dump(self.with_wurx(key, value)))
        assert main(["run", str(path), "--validate-only"]) == 1
        assert "scenario error" in capsys.readouterr().err


NAN, INF = float("nan"), float("inf")


class TestNonFiniteNumbers:
    """A NaN or infinite number is rejected at load: a NaN RSSI passes
    every reception gate, a NaN capture threshold turns collisions off, an
    infinite noise figure drops every frame, and a NaN horizon cannot be
    converted to nanoseconds."""

    CASES = [("channel", "reference_loss_at_1m_db", float("nan")),
             ("channel", "capture_threshold_db", float("nan")),
             ("channel", "noise_figure_db", float("inf")),
             ("radio", "frequency_hz", float("nan")),
             ("sim", "horizon_s", float("nan"))]

    @pytest.mark.parametrize("section, key, value", CASES)
    def test_run_exits_1(self, section, key, value, tmp_path, capsys):
        raw = example_dict()
        raw[section][key] = value
        with pytest.raises(ScenarioError, match=f"{section}.{key} must be "
                                                f"finite"):
            from_dict(raw)
        path = tmp_path / "non_finite.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert main(["run", str(path), "--out-dir",
                     str(tmp_path / "out")]) == 1
        assert f"{section}.{key} must be finite" in capsys.readouterr().err

    # every one of these was accepted when built in code; the message names
    # the field, or the power table's label
    CODE_CASES = [
        *[(NodeSpec(2, "mote", Position(x=50.0)), {field: value},
           f"{field} must be finite")
          for field in ("battery_j", "harvest_rate_w") for value in (NAN, INF)],
        *[(NodeSpec(2, "mote", Position(x=50.0)), {"power_w": {key: value}},
           f"{key} power must be >= 0 and finite")
          for key, value in [(key, NAN) for key in POWER_KEYS]
          + [("lora_tx", INF), ("lora_rx", INF)]],
        *[(WurxSpec(address=42), {field: value}, f"{field} must be finite")
          for field, value in [("sensitivity_dbm", NAN),
                               ("sensitivity_dbm", INF),
                               ("sensitivity_dbm", -INF),
                               ("decode_power_w", NAN),
                               ("decode_power_w", INF)]],
        *[(ChannelParams(), {field: value}, f"{field} must be finite")
          for field in ("noise_figure_db", "reference_loss_at_1m_db",
                        "capture_threshold_db")
          for value in (NAN, INF, -INF)],
        *[(RadioConfig(), {"frequency_hz": value}, "frequency_hz must be finite")
          for value in (NAN, INF)],
    ]

    @pytest.mark.parametrize("valid, fields, message", CODE_CASES)
    def test_code_built_record_rejects_it(self, valid, fields, message):
        with pytest.raises(ConfigError, match=f"^{message}"):
            type(valid)(**{**valid._asdict(), **fields})
        with pytest.raises(ConfigError, match=f"^{message}"):
            valid._replace(**fields)


class TestAppKeysOfTheOtherKind:
    """An app key that its kind does not read is rejected at load."""

    OTHER_KIND_KEYS = [
        ("wakeup_exchange", "src", 5), ("wakeup_exchange", "dst", 9),
        ("wakeup_exchange", "period_s", 4.0),
        ("periodic", "initiator", 1), ("periodic", "target", 1),
        ("periodic", "cycles", 3), ("periodic", "cycle_period_s", 2.0),
        ("periodic", "linger_ms", 15.0), ("periodic", "rx_timeout_ms", 400.0),
        ("none", "payload_len", 12), ("none", "dst", 1),
    ]

    @staticmethod
    def app_of(kind):
        if kind == "wakeup_exchange":
            return copy.deepcopy(FULL)
        raw = example_dict()
        if kind == "none":
            raw["app"] = {"kind": "none"}
        return raw

    @pytest.mark.parametrize("kind", ["periodic", "wakeup_exchange", "none"])
    def test_own_keys_load(self, kind):
        assert from_dict(self.app_of(kind)).app.kind == kind

    @pytest.mark.parametrize("kind, key, value", OTHER_KIND_KEYS)
    def test_scenario_error_at_load(self, kind, key, value):
        raw = self.app_of(kind)
        raw["app"][key] = value
        with pytest.raises(ScenarioError) as info:
            from_dict(raw)
        assert (f"unknown key(s) in app of kind '{kind}': {key}"
                in str(info.value))
