import hashlib
import pathlib

import pytest

from motesim.cli import main

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / \
    "example.yaml"


def write_short_scenario(tmp_path):
    text = EXAMPLE.read_text().replace("horizon_s: 3601.0",
                                       "horizon_s: 31.0")
    path = tmp_path / "short.yaml"
    path.write_text(text)
    return path


def test_validate_only(tmp_path, capsys):
    path = write_short_scenario(tmp_path)
    assert main(["run", str(path), "--validate-only"]) == 0
    assert "scenario OK" in capsys.readouterr().out


def test_run_writes_reports(tmp_path, capsys):
    path = write_short_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "packets.csv").exists()
    assert (out_dir / "links.csv").exists()
    assert (out_dir / "energy.csv").exists()
    assert "sent 3 delivered 3" in capsys.readouterr().out


def test_run_text_format(tmp_path):
    path = write_short_scenario(tmp_path)
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--format", "text",
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "report.txt").exists()


def test_validation_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text(EXAMPLE.read_text().replace("period_s: 10.0",
                                               "period_s: 0.1"))
    assert main(["run", str(bad)]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_missing_file_exit_code(capsys):
    assert main(["run", "/no/such/file.yaml"]) == 1
    assert "scenario error" in capsys.readouterr().err


def test_unknown_key_exit_code(tmp_path, capsys):
    bad = tmp_path / "typo.yaml"
    bad.write_text(EXAMPLE.read_text().replace("seed: 42", "sede: 42"))
    assert main(["run", str(bad)]) == 1


def test_range_sweep_cli(tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["range-sweep", "--distances", "1,600", "--packets", "3",
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "sweep.csv").exists()
    out = capsys.readouterr().out
    assert "pdr=1.000" in out


def test_power_profile_cli(tmp_path, capsys):
    out_dir = tmp_path / "profile"
    assert main(["power-profile", "--cycles", "2",
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "energy.csv").exists()
    assert (out_dir / "exchanges.csv").exists()
    assert "exchanges completed: 2/2" in capsys.readouterr().out


def test_power_profile_cycles_checked_by_the_simulator(tmp_path, capsys):
    # the preset's scenario refuses it when built, before any Simulator
    assert main(["power-profile", "--cycles", "0",
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "scenario error: app.cycles must be >= 1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("cycles", ["-1", "-3"])
def test_power_profile_negative_cycles_named_before_the_horizon(
        cycles, tmp_path, capsys):
    # the horizon, (cycles + 1) periods, is not positive here; the error
    # once named it, not the option that set it
    assert main(["power-profile", "--cycles", cycles,
                 "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (
        "scenario error: app.cycles must be >= 1\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["run", "power-profile"])
def test_reports_carry_no_trace_hash(command, tmp_path, monkeypatch):
    # no output shows a trace hash, so the CLI does not record a trace
    from motesim import report
    hashes = []

    def emit(metrics, fmt, out_dir):
        hashes.append(metrics.trace_hash)
        return []

    monkeypatch.setattr(report, "emit", emit)
    argv = ([command, str(write_short_scenario(tmp_path))]
            if command == "run" else [command, "--cycles", "2"])
    assert main(argv + ["--out-dir", str(tmp_path / "out")]) == 0
    assert hashes == [""]


def test_seed_override(tmp_path, capsys):
    path = write_short_scenario(tmp_path)
    text = path.read_text().replace("shadowing_sigma_db: 0.0",
                                    "shadowing_sigma_db: 3.0")
    path.write_text(text)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    out_c = tmp_path / "c"
    assert main(["run", str(path), "--seed", "7", "--out-dir",
                 str(out_a)]) == 0
    assert main(["run", str(path), "--seed", "7", "--out-dir",
                 str(out_b)]) == 0
    assert main(["run", str(path), "--seed", "8", "--out-dir",
                 str(out_c)]) == 0
    packets_a = (out_a / "packets.csv").read_bytes()
    assert packets_a == (out_b / "packets.csv").read_bytes()
    assert packets_a != (out_c / "packets.csv").read_bytes()


@pytest.mark.parametrize("key, value", [
    ("battery_j", -1.0), ("harvest_efficiency", 1.5),
    ("mcu_wakeup_latency_us", 0.0), ("radio_turn_on_ms", -1.0)])
def test_validate_only_rejects_a_node_the_run_rejects(key, value, tmp_path,
                                                      capsys):
    # the example's second node lists each key commented out
    text = EXAMPLE.read_text()
    assert text.count(f"    # {key}: ") == 1
    bad = tmp_path / "bad_node.yaml"
    bad.write_text(text.replace(f"    # {key}: ", f"    {key}: {value}  # "))
    assert main(["run", str(bad), "--validate-only"]) == 1
    err = capsys.readouterr().err
    assert "scenario error: node 2:" in err
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == err


@pytest.mark.parametrize("validate_only", [True, False])
def test_seed_out_of_range_is_a_scenario_error(validate_only, tmp_path,
                                               capsys):
    # the --seed override is checked as the file's seed is
    out_dir = tmp_path / "out"
    argv = ["run", str(EXAMPLE), "--seed", "-1", "--out-dir", str(out_dir)]
    assert main(argv + ["--validate-only"] * validate_only) == 1
    assert "scenario error: sim.seed must fit in 64 bits" in \
        capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("sigma", ["-1", "nan", "inf"])
def test_range_sweep_rejects_bad_sigma(sigma, tmp_path, capsys):
    out_dir = tmp_path / "sweep"
    assert main(["range-sweep", "--distances", "600", "--packets", "2",
                 "--sigma", sigma, "--out-dir", str(out_dir)]) == 1
    assert "shadowing_sigma_db must be finite and >= 0" in \
        capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("sigma", ["31", "1e308"])
def test_range_sweep_rejects_sigma_above_30_db(sigma, tmp_path, capsys):
    # a finite but huge σ once wrote -inf means and counted frames at an
    # RSSI of +inf as delivered
    out_dir = tmp_path / "sweep"
    assert main(["range-sweep", "--distances", "50,600", "--packets", "4",
                 "--sigma", sigma, "--out-dir", str(out_dir)]) == 1
    assert "shadowing_sigma_db must be <= 30.0" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("distances, sigma", [("0,50", "0"), ("50,0", "4")])
def test_range_sweep_rejects_distance_not_positive(distances, sigma, tmp_path,
                                                   capsys):
    # an option out of range is a scenario error, as --packets 0 is
    out_dir = tmp_path / "sweep"
    assert main(["range-sweep", "--distances", distances, "--packets", "2",
                 "--sigma", sigma, "--out-dir", str(out_dir)]) == 1
    assert "distances: at least one is needed, each > 0" in \
        capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("distances", ["nan", "inf", "50,nan", "50,inf"])
def test_range_sweep_rejects_a_distance_not_finite(distances, tmp_path,
                                                   capsys):
    # once it passed the > 0 check and ended in a position error
    out_dir = tmp_path / "sweep"
    assert main(["range-sweep", "--distances", distances, "--packets", "2",
                 "--out-dir", str(out_dir)]) == 1
    assert "scenario error: distances: each must be finite" in \
        capsys.readouterr().err
    assert not out_dir.exists()


def test_range_sweep_past_the_sequence_number_is_a_scenario_error(
        tmp_path, capsys):
    # a sender's 65,536th frame would overflow the 16-bit header seqno
    out_dir = tmp_path / "sweep"
    assert main(["range-sweep", "--distances", "50", "--packets", "65536",
                 "--out-dir", str(out_dir)]) == 1
    assert "16-bit link-header sequence number" in capsys.readouterr().err
    assert not out_dir.exists()


def test_range_sweep_without_a_distance_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as info:
        main(["range-sweep", "--distances", ","])
    assert info.value.code == 2


def test_shadowed_range_sweep_at_the_largest_seed(tmp_path, capsys):
    # the largest 64-bit seed runs under shadowing, and a negative one is
    # rejected
    out_dir = tmp_path / "sweep"
    assert main(["range-sweep", "--distances", "50,600", "--packets", "2",
                 "--sigma", "4", "--seed", str(2 ** 64 - 1),
                 "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "sweep.csv").exists()
    assert main(["range-sweep", "--distances", "50,600", "--packets", "2",
                 "--sigma", "4", "--seed", "-1",
                 "--out-dir", str(tmp_path / "negative")]) == 1
    assert "sim.seed must fit in 64 bits" in capsys.readouterr().err


# SHA-256 of the text reports, pinned on the code before the node state
# machine moved into one function; the text emitters had no digest before.
# The power profile's is the only digest over the exchange table's text.
TEXT_DIGESTS = {
    "report.txt": (
        ["run", str(EXAMPLE), "--format", "text"], "report.txt",
        "10248c910442a373e19b8e7006c098fe5433eb916e5f8c700d8f4ca3f85420b5"),
    "sweep.txt": (
        ["range-sweep", "--distances", "50,600,700", "--packets", "5",
         "--format", "text"], "sweep.txt",
        "6b737cf610ac1ca41eab0d84d9887088644a1b7d76fe25fa381b8276b04e4679"),
    "power-profile-report.txt": (
        ["power-profile", "--cycles", "5", "--format", "text"], "report.txt",
        "19aa01160b92f13f18c9f0426644926cce4094d22cf7f64253897f8a5f2f66ae"),
}


@pytest.mark.parametrize("argv, name, digest", TEXT_DIGESTS.values(),
                         ids=TEXT_DIGESTS)
def test_text_report_digest(argv, name, digest, tmp_path):
    assert main(argv + ["--out-dir", str(tmp_path)]) == 0
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == \
        digest


@pytest.mark.parametrize("key", ["sleep_w", "lora_tx_w", "lora_rx_w",
                                 "mcu_active_w"])
def test_negative_power_rejected_at_load(key, tmp_path, capsys):
    # the example's second node lists each power key commented out
    text = EXAMPLE.read_text()
    assert text.count("    # power:\n") == 1
    assert text.count(f"    #   {key}: ") == 1
    bad = tmp_path / "negative_power.yaml"
    bad.write_text(text.replace("    # power:\n", "    power:\n").replace(
        f"    #   {key}: ", f"      {key}: -1.0  # "))
    assert main(["run", str(bad), "--validate-only"]) == 1
    err = capsys.readouterr().err
    assert "scenario error: node 2:" in err and "must be >= 0" in err
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == err


def test_power_key_for_wurx_decode_rejected_at_load(tmp_path, capsys):
    # a WuRX node's decode power is set by its wurx block's decode_power_w
    text = EXAMPLE.read_text()
    bad = tmp_path / "decode_power.yaml"
    bad.write_text(text.replace(
        "    # power:\n", "    power:\n      wurx_decode_w: 2.84e-4\n"))
    assert main(["run", str(bad), "--validate-only"]) == 1
    assert "unknown key(s) in nodes[1].power: wurx_decode_w" in \
        capsys.readouterr().err


def test_bs_sender_not_ready_at_its_first_tick_rejected(tmp_path, capsys):
    """A bs sender whose radio is still turning on at its first tick is
    refused at load, by ``--validate-only`` and by the run alike."""
    bad = tmp_path / "slow_bs.yaml"
    bad.write_text(
        "sim: {horizon_s: 5.0}\n"
        "nodes:\n"
        "  - {address: 1, role: bs}\n"
        "  - {address: 2, role: bs, radio_turn_on_ms: 1500.0,"
        " position: {x: 50.0}}\n"
        "app: {kind: periodic, src: 2, dst: 1, period_s: 1.0}\n")
    assert main(["run", str(bad), "--validate-only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: app.period_s must be at least "
                          "node 2's radio turn-on")
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == err


def test_huge_reference_loss_checked_at_load(tmp_path, capsys):
    # a finite but huge constant once ran to exit 0 with nonsense RSSIs
    text = EXAMPLE.read_text()
    bad = tmp_path / "loss.yaml"
    bad.write_text(text.replace("reference_loss_at_1m_db: 31.2",
                                "reference_loss_at_1m_db: 1.0e+308")
                   .replace("horizon_s: 3601.0", "horizon_s: 61.0"))
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert "reference_loss_at_1m_db must be within [0, 100], got 1e+308" in \
        capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("payload_len", [300, -7])
def test_payload_len_checked_at_load(payload_len, tmp_path, capsys):
    text = EXAMPLE.read_text()
    assert text.count("  payload_len: 16\n") == 1
    bad = tmp_path / "payload.yaml"
    bad.write_text(text.replace("  payload_len: 16\n",
                                f"  payload_len: {payload_len}\n"))
    assert main(["run", str(bad), "--validate-only"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("scenario error: app.payload_len")
    assert main(["run", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == err


# each file is malformed in one section or holds one duration too large to
# count in ns; loading one must end in a scenario error, not a traceback
ONE_BS = "nodes: [{address: 1, role: bs}]\n"
MALFORMED = {
    "sim-scalar": "sim: 5\n" + ONE_BS + "app: {kind: none}\n",
    "sim-null": "sim:\n" + ONE_BS + "app: {kind: none}\n",
    "app-scalar": "sim: {horizon_s: 1.0}\n" + ONE_BS + "app: 5\n",
    "power-scalar": "sim: {horizon_s: 1.0}\n"
                    "nodes: [{address: 1, role: bs, power: 5}]\n"
                    "app: {kind: none}\n",
    "power-null": "sim: {horizon_s: 1.0}\n"
                  "nodes: [{address: 1, role: bs, power: }]\n"
                  "app: {kind: none}\n",
    "horizon-overflow": "sim: {horizon_s: 1.0e+308}\n" + ONE_BS
                        + "app: {kind: none}\n",
    "period-overflow": "sim: {horizon_s: 1.0}\n"
                       "nodes: [{address: 1, role: bs},"
                       " {address: 2, role: mote, position: {x: 5.0}}]\n"
                       "app: {kind: periodic, src: 2, dst: 1,"
                       " period_s: 1.0e+308}\n",
    "turn-on-overflow": "sim: {horizon_s: 1.0}\n"
                        "nodes: [{address: 1, role: bs,"
                        " radio_turn_on_ms: 1.0e+308}]\n"
                        "app: {kind: none}\n",
    # a falsy section that is not a mapping is not an omitted one
    "radio-zero": "sim: {horizon_s: 1.0}\nradio: 0\n" + ONE_BS
                  + "app: {kind: none}\n",
    "channel-list": "sim: {horizon_s: 1.0}\nchannel: []\n" + ONE_BS
                    + "app: {kind: none}\n",
    "radio-empty-string": "sim: {horizon_s: 1.0}\nradio: ''\n" + ONE_BS
                          + "app: {kind: none}\n",
}


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED)
def test_malformed_scenario_is_a_scenario_error(text, tmp_path, capsys):
    bad = tmp_path / "malformed.yaml"
    bad.write_text(text)
    assert main(["run", str(bad), "--validate-only"]) == 1
    assert capsys.readouterr().err.startswith("scenario error:")


# each file holds one number that no float or ns count holds, or that
# YAML cannot read; the error names where it lies
HUGE = "1" + "0" * 400  # an integer beyond float range
UNREADABLE = {
    "horizon-beyond-float": ("sim: {horizon_s: " + HUGE + "}\n" + ONE_BS
                             + "app: {kind: none}\n",
                             "sim.horizon_s is too large for a float"),
    "position-beyond-float": ("sim: {horizon_s: 1.0}\n"
                              "nodes: [{address: 1, role: bs,"
                              " position: {x: " + HUGE + "}}]\n"
                              "app: {kind: none}\n",
                              "nodes[0].position.x is too large for a float"),
    "wurx-airtime-beyond-ns": ("sim: {horizon_s: 1.0}\n"
                               "nodes: [{address: 1, role: sleeper,"
                               " wurx: {address: 7,"
                               " bit_rate_bps: 1.0e-300}}]\n"
                               "app: {kind: none}\n",
                               "node 1: wurx: a burst's airtime"),
    # Python reads an int of at most 4,300 digits from a string
    "int-past-the-digit-limit": ("sim: {horizon_s: 1" + "0" * 5000 + "}\n"
                                 + ONE_BS + "app: {kind: none}\n",
                                 "scenario file is not valid YAML"),
    "impossible-date": ("sim: {horizon_s: 2020-13-45}\n" + ONE_BS
                        + "app: {kind: none}\n",
                        "scenario file is not valid YAML"),
}


@pytest.mark.parametrize("text, error", UNREADABLE.values(), ids=UNREADABLE)
def test_unreadable_number_is_a_scenario_error(text, error, tmp_path,
                                               capsys):
    bad = tmp_path / "unreadable.yaml"
    bad.write_text(text)
    assert main(["run", str(bad), "--validate-only"]) == 1
    assert capsys.readouterr().err.startswith(f"scenario error: {error}")


def test_preamble_past_its_register_is_a_scenario_error(tmp_path, capsys):
    # a 401-digit preamble must stop before the send-cycle check, whose
    # message would overflow a float on the frame airtime
    text = EXAMPLE.read_text()
    assert text.count("preamble_symbols: 8\n") == 1
    bad = tmp_path / "preamble.yaml"
    bad.write_text(text.replace("preamble_symbols: 8\n",
                                f"preamble_symbols: {HUGE}\n"))
    assert main(["run", str(bad), "--validate-only"]) == 1
    assert capsys.readouterr().err.startswith(
        "scenario error: radio: preamble_symbols must be 0..65535")


def test_null_section_takes_the_defaults(tmp_path, capsys):
    text = "sim: {horizon_s: 1.0}\n" + ONE_BS + "app: {kind: none}\n"
    hashes = []
    for extra in ("", "radio:\nchannel:\n"):
        path = tmp_path / "null_sections.yaml"
        path.write_text(extra + text)
        assert main(["run", str(path), "--validate-only"]) == 0
        hashes.append(capsys.readouterr().out)
    assert hashes[0] == hashes[1]
    assert hashes[0].startswith("scenario OK (")
