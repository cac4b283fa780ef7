import pathlib

import pytest
import yaml

from motesim import Scenario, ScenarioError, load, run, scenario_hash
from motesim.scenario import from_dict, range_point_scenario

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
    import dataclasses
    c = dataclasses.replace(a, seed=a.seed + 1)
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
        with pytest.raises(ScenarioError):
            range_point_scenario(distance_m=0.0)
        with pytest.raises(ScenarioError):
            range_point_scenario(distance_m=10.0, packets=0)

    def test_exchange_cycle_must_fit_period(self):
        from motesim.scenario import power_profile_scenario
        with pytest.raises(ScenarioError, match="cycle_period_s"):
            power_profile_scenario(cycles=2, cycle_period_s=0.3)


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

    def test_omitted_dst_rejected(self):
        raw = example_dict()
        del raw["app"]["dst"]
        with pytest.raises(ScenarioError, match="requires dst"):
            from_dict(raw)
        del raw["app"]["src"]
        with pytest.raises(ScenarioError, match="requires dst"):
            from_dict(raw)


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

    def test_invalid_yaml_is_a_scenario_error(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("sim: [horizon_s: 1.0\n")
        with pytest.raises(ScenarioError, match="not valid YAML"):
            load(bad)
