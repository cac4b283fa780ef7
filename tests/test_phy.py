import random

import pytest

from motesim import (ConfigError, Frame, RadioConfig, SensitivityTable,
                     TableEntryMissing, payload_symbol_count, time_on_air)
from motesim.channel import decide_reception
from oracles import on_air, oracle_airtime_s, oracle_symbol_count

PAPER_CFG = RadioConfig()  # SF12 / 500 kHz / 4-6 / +14 dBm / preamble 8


def test_paper_point_airtime():
    # 16 B at SF12 / 500 kHz / 4-6: 26 payload symbols, 313.344 ms
    assert payload_symbol_count(PAPER_CFG, 16) == 26
    assert time_on_air(PAPER_CFG, 16) == 313_344_000


def test_zero_payload_airtime():
    # preamble 100.352 ms plus the 8 header-derived symbols
    assert payload_symbol_count(PAPER_CFG, 0) == 8
    assert time_on_air(PAPER_CFG, 0) == 165_888_000


def test_airtime_monotone_in_payload():
    for payload in range(0, 128):
        assert time_on_air(PAPER_CFG, 2 * (payload + 1)) > 0
        assert (time_on_air(PAPER_CFG, payload + 1)
                >= time_on_air(PAPER_CFG, payload))
    # doubling strictly increases for a non-trivial payload
    assert time_on_air(PAPER_CFG, 32) > time_on_air(PAPER_CFG, 16)


@pytest.mark.parametrize("bw", [125_000, 250_000, 500_000])
def test_airtime_monotone_in_sf(bw):
    for payload in (0, 16, 120, 255):
        previous = None
        for sf in range(6, 13):
            cfg = RadioConfig(spreading_factor=sf, bandwidth_hz=bw)
            toa = time_on_air(cfg, payload)
            if previous is not None:
                assert toa >= previous
            previous = toa


def test_airtime_monotone_in_bandwidth():
    for sf in range(6, 13):
        values = [time_on_air(RadioConfig(spreading_factor=sf,
                                          bandwidth_hz=bw), 40)
                  for bw in (125_000, 250_000, 500_000)]
        assert values[0] >= values[1] >= values[2]


def test_airtime_matches_oracle_randomized():
    rng = random.Random(0xA1B2)
    for _ in range(12_000):
        sf = rng.randint(6, 12)
        bw = rng.choice((125_000, 250_000, 500_000))
        cr = rng.randint(5, 8)
        payload = rng.randint(0, 255)
        preamble = rng.choice((6, 8, 12, 16))
        eh = rng.random() < 0.9
        crc = rng.random() < 0.9
        ldro = rng.random() < 0.2
        cfg = RadioConfig(spreading_factor=sf, bandwidth_hz=bw,
                          coding_rate=cr, preamble_symbols=preamble,
                          explicit_header=eh, crc_on=crc,
                          low_data_rate_optimize=ldro)
        assert payload_symbol_count(cfg, payload) == oracle_symbol_count(
            sf, cr, payload, eh, crc, ldro)
        expected_s = oracle_airtime_s(sf, bw, cr, payload, preamble, eh,
                                      crc, ldro)
        assert abs(time_on_air(cfg, payload) - expected_s * 1e9) <= 1.0


@pytest.mark.parametrize("kwargs", [
    {"spreading_factor": 5}, {"spreading_factor": 13},
    {"bandwidth_hz": 100_000}, {"coding_rate": 4}, {"coding_rate": 9},
    {"tx_power_dbm": -5.0}, {"tx_power_dbm": 21.0},
    {"preamble_symbols": -1},
    # the LoRa preamble-length register holds 16 bits
    {"preamble_symbols": 65_536},
])
def test_invalid_config_rejected(kwargs):
    with pytest.raises(ConfigError):
        RadioConfig(**kwargs)


@pytest.mark.parametrize("preamble_symbols", [0, 65_535])
def test_preamble_register_range_accepted(preamble_symbols):
    cfg = RadioConfig(preamble_symbols=preamble_symbols)
    # (n + 4.25) preamble symbols of 8.192 ms, then 26 payload symbols
    assert time_on_air(cfg, 16) == (4 * preamble_symbols + 17) * 2_048_000 \
        + 26 * 8_192_000


def test_negative_payload_rejected():
    with pytest.raises(ConfigError):
        time_on_air(PAPER_CFG, -1)


class TestSensitivityTable:
    def test_default_table_anchor(self):
        table = SensitivityTable.load_default()
        assert table.sensitivity(12, 500_000) == -140.0
        assert table.snr_floor(12) == -20.0
        assert table.version == 1

    def test_default_table_monotonic(self):
        table = SensitivityTable.load_default()
        for sf in range(6, 13):
            assert (table.sensitivity(sf, 125_000)
                    < table.sensitivity(sf, 250_000)
                    < table.sensitivity(sf, 500_000))
        for sf in range(6, 12):
            assert table.snr_floor(sf + 1) < table.snr_floor(sf)

    def test_default_table_read_once_per_process(self, monkeypatch):
        from motesim import phy
        from motesim.engine import Simulator
        from motesim.scenario import range_point_scenario
        reads = []
        files = phy.resources.files

        def counted_files(package):
            reads.append(package)
            return files(package)

        monkeypatch.setattr(phy.resources, "files", counted_files)
        SensitivityTable.load_default.cache_clear()
        sims = [Simulator(range_point_scenario(d)) for d in (50.0, 600.0)]
        assert SensitivityTable.load_default() is sims[0].table
        assert sims[1].table is sims[0].table
        assert reads == ["motesim"]

    def test_missing_entry(self):
        table = SensitivityTable({(7, 125_000): -130.0}, {7: -7.5})
        with pytest.raises(TableEntryMissing):
            table.sensitivity(12, 500_000)
        with pytest.raises(TableEntryMissing):
            table.snr_floor(12)

    def test_invariant_violations_rejected(self):
        with pytest.raises(ConfigError):
            SensitivityTable({(7, 125_000): -120.0, (7, 250_000): -130.0},
                             {7: -7.5})
        with pytest.raises(ConfigError):
            SensitivityTable({(7, 125_000): -130.0},
                             {7: -7.5, 8: -7.5})


def lone_reception(rssi_dbm, snr_db, table):
    """``decide_reception`` at receiver 2 for one frame with no rival, sent
    with ``PAPER_CFG`` and arriving with the given RSSI and SNR."""
    frame = Frame(frame_id=1, src=1, dst=2, seqno=1, payload=b"",
                  spreading_factor=PAPER_CFG.spreading_factor,
                  bandwidth_hz=PAPER_CFG.bandwidth_hz,
                  frequency_hz=PAPER_CFG.frequency_hz,
                  noise_floor_dbm=rssi_dbm - snr_db,
                  rssi_by_rx={2: rssi_dbm})
    return decide_reception(on_air(frame, 0, 1000), 2, None, table,
                            capture_threshold_db=6.0)


class TestReceptionMargin:
    """The link-budget gates of ``channel.decide_reception`` with no rival."""

    table = SensitivityTable.load_default()

    def test_paper_coverage_point_accepts(self):
        # -120 dBm at SF12/500 kHz with workable SNR
        decision = lone_reception(-120.0, -9.0, self.table)
        assert decision.decoded and decision.cause == "ok"
        assert decision.rssi_margin_db == pytest.approx(20.0)

    def test_below_floor_rejects_with_margin(self):
        decision = lone_reception(-141.0, 5.0, self.table)
        assert not decision.decoded
        assert decision.cause == "below-sensitivity"
        assert decision.rssi_margin_db == pytest.approx(-1.0)

    def test_boundary_inclusive(self):
        decision = lone_reception(-140.0, -20.0, self.table)
        assert decision.decoded
        assert decision.rssi_margin_db == 0.0
        assert decision.snr_margin_db == 0.0

    def test_snr_floor_rejects(self):
        decision = lone_reception(-100.0, -20.5, self.table)
        assert not decision.decoded
        assert decision.cause == "snr-floor"

    def test_pure_function(self):
        first = lone_reception(-123.4, -5.6, self.table)
        for _ in range(5):
            assert lone_reception(-123.4, -5.6, self.table) == first
