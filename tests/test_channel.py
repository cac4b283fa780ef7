import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motesim import (ChannelParams, ConfigError, Frame, Position,
                     RadioConfig, SensitivityTable, ZeroDistanceError,
                     noise_floor_dbm, rssi_at)
from motesim.channel import RssiOnRead
from oracles import (on_air, oracle_noise_floor_dbm, reception_margin,
                     resolve_concurrent, snr_of)

TABLE = SensitivityTable.load_default()
ORIGIN = Position()


AIRTIME_NS = 313_344_000  # a 16-byte frame at SF12/500 kHz


def make_frame(frame_id, src, dst, rssi_by_rx, sf=12, bw=500_000,
               freq=868e6):
    nf = 6.0
    return Frame(
        frame_id=frame_id, src=src, dst=dst, seqno=frame_id,
        payload=b"", spreading_factor=sf, bandwidth_hz=bw, frequency_hz=freq,
        noise_floor_dbm=noise_floor_dbm(bw, nf),
        rssi_by_rx=dict(rssi_by_rx),
    )


def links_of(n):
    """``n`` receivers in ascending address order, each with its index and
    a mean loss of its own."""
    return {3 * k + 2: (k, 60.0 + 7.25 * k) for k in range(n)}


def filled(links, twin, sigma, tx_power_dbm=14.0):
    """The RSSI map with one ``twin.gauss`` call per receiver, in order."""
    return {rx: tx_power_dbm - (loss + twin.gauss(0.0, sigma))
            for rx, (_index, loss) in links.items()}


class TestShadowingDraws:
    """The per-link shadowing draws of ``RssiOnRead`` against
    ``random.Random.gauss``."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 19])
    @pytest.mark.parametrize("earlier", [1, 3])
    def test_equals_gauss_bit_for_bit_with_a_spare_pending(self, n, earlier):
        sigma = 4.0
        rng, twin = random.Random(2024), random.Random(2024)
        for _ in range(earlier):  # an odd count leaves a spare value
            rng.gauss(0.0, sigma)
            twin.gauss(0.0, sigma)
        assert rng.gauss_next is not None
        links = links_of(n)
        rssi = RssiOnRead(14.0, links, rng, sigma)
        assert [rssi[rx] for rx in rssi] == list(
            filled(links, twin, sigma).values())
        assert rng.getstate() == twin.getstate()
        assert rng.gauss(0.0, sigma) == twin.gauss(0.0, sigma)

    @settings(max_examples=300, deadline=None)
    @given(sigma=st.floats(min_value=0.0, exclude_min=True,
                           allow_infinity=False),
           n=st.integers(0, 200), earlier=st.integers(0, 3),
           seed=st.integers(0, 2 ** 64 - 1), data=st.data())
    def test_any_read_order_equals_gauss(self, sigma, n, earlier, seed, data):
        rng, twin = random.Random(seed), random.Random(seed)
        for _ in range(earlier):
            rng.gauss(0.0, sigma)
            twin.gauss(0.0, sigma)
        links = links_of(n)
        rssi = RssiOnRead(14.0, links, rng, sigma)
        expected = filled(links, twin, sigma)
        assert rng.getstate() == twin.getstate()
        order = data.draw(st.permutations(list(links)))
        subset = order[:data.draw(st.integers(0, n))]
        assert [rssi[rx] for rx in subset] == [expected[rx] for rx in subset]
        assert len(rssi) == n
        with pytest.raises(KeyError):
            rssi[1]  # not a receiver
        assert rng.getstate() == twin.getstate()
        assert rng.gauss(0.0, sigma) == twin.gauss(0.0, sigma)


class TestRssiOnRead:
    """A frame's lazily computed RSSI map reads as the filled dict."""

    def test_reads_as_the_filled_dict(self):
        links = {2: (0, 90.0), 5: (1, 120.5), 9: (2, 60.25)}
        rng, twin = random.Random(7), random.Random(7)
        rssi = RssiOnRead(14.0, links, rng, 4.0)
        expected = filled(links, twin, 4.0)
        assert rssi[9] == expected[9]
        assert (list(rssi), len(rssi), 5 in rssi, 3 in rssi) == (
            [2, 5, 9], 3, True, False)
        assert [rssi[rx] for rx in rssi] == list(expected.values())
        with pytest.raises(KeyError):
            rssi[3]

    def test_unshadowed_entries_equal_rssi_at_and_draw_nothing(self):
        """Without shadowing the engine builds no ``RssiOnRead``: a sender's
        frames share one plain dict of ``rssi_at`` values per tx power, and
        the RNG is not touched."""
        from motesim import Simulator
        from motesim.scenario import AppSpec, NodeSpec, Scenario
        params = ChannelParams()
        positions = {2: Position(x=40.0), 5: Position(x=-90.0, y=20.0),
                     9: Position(y=300.0)}
        nodes = (NodeSpec(address=1, role="bs", position=ORIGIN),) + tuple(
            NodeSpec(address=rx, role="mote", position=pos)
            for rx, pos in positions.items())
        sim = Simulator(Scenario(
            horizon_ns=10 ** 9, seed=7, radio=RadioConfig(), channel=params,
            nodes=nodes, app=AppSpec(kind="none")), record_trace=False)
        sim.rng.gauss(0.0, 4.0)  # leaves a spare pending
        state = sim.rng.getstate()
        rssi = sim._rssi_by_rx(sim.devices[1], False)
        assert type(rssi) is dict
        assert rssi == {rx: rssi_at(14.0, ORIGIN, pos, params)
                        for rx, pos in positions.items()}
        assert sim._rssi_by_rx(sim.devices[1], False) is rssi
        driver = sim.drivers[1]
        driver.configure(driver.config._replace(tx_power_dbm=2.0))
        louder = sim._rssi_by_rx(sim.devices[1], False)
        assert louder is not rssi
        assert louder == {rx: rssi_at(2.0, ORIGIN, pos, params)
                          for rx, pos in positions.items()}
        assert sim.rng.getstate() == state


class TestRssiAt:
    def test_calibrated_600m_point(self):
        # +14 dBm over 600 m with n = 3.70, 31.2 dB at 1 m -> about -120 dBm
        rssi = rssi_at(14.0, ORIGIN, Position(x=600.0), ChannelParams())
        assert rssi == pytest.approx(-120.0, abs=0.05)

    def test_reference_distance(self):
        rssi = rssi_at(14.0, ORIGIN, Position(x=1.0), ChannelParams())
        assert rssi == pytest.approx(14.0 - 31.2, abs=1e-12)

    def test_strictly_decreasing_with_distance(self):
        params = ChannelParams()
        values = [rssi_at(14.0, ORIGIN, Position(x=d), params)
                  for d in (1, 2, 5, 10, 100, 500, 1000, 5000)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_zero_distance_rejected(self):
        with pytest.raises(ZeroDistanceError):
            rssi_at(14.0, ORIGIN, Position(), ChannelParams())

    def test_shadowing_deterministic_given_seed(self):
        params = ChannelParams(shadowing_sigma_db=4.0)
        draws_a = [rssi_at(14.0, ORIGIN, Position(x=100.0), params,
                           random.Random(99)) for _ in range(1)]
        draws_b = [rssi_at(14.0, ORIGIN, Position(x=100.0), params,
                           random.Random(99)) for _ in range(1)]
        assert draws_a == draws_b

    def test_shadowing_requires_rng(self):
        params = ChannelParams(shadowing_sigma_db=4.0)
        with pytest.raises(ConfigError):
            rssi_at(14.0, ORIGIN, Position(x=10.0), params)

    def test_param_ranges(self):
        with pytest.raises(ConfigError):
            ChannelParams(path_loss_exponent=1.0)
        with pytest.raises(ConfigError):
            ChannelParams(path_loss_exponent=6.5)
        with pytest.raises(ConfigError):
            ChannelParams(shadowing_sigma_db=-1.0)
        # σ is bounded as the exponent is, edge included
        assert ChannelParams(shadowing_sigma_db=30.0).shadowing_sigma_db == 30.0
        with pytest.raises(ConfigError, match="<= 30.0, got 30.5"):
            ChannelParams(shadowing_sigma_db=30.5)


class TestSnr:
    def test_zero_at_noise_floor(self):
        floor = noise_floor_dbm(500_000, 6.0)
        assert floor == pytest.approx(-111.0103, abs=1e-3)
        assert snr_of(floor, 500_000, 6.0) == 0.0
        assert snr_of(-111.0, 500_000, 6.0) == pytest.approx(0.0, abs=0.02)

    def test_matches_thermal_oracle(self):
        for bw in (125_000, 250_000, 500_000):
            for nf in (0.0, 3.0, 6.0):
                assert noise_floor_dbm(bw, nf) == pytest.approx(
                    oracle_noise_floor_dbm(bw, nf), abs=1e-12)

    def test_linearity(self):
        base = snr_of(-100.0, 500_000, 6.0)
        assert snr_of(-90.0, 500_000, 6.0) == pytest.approx(base + 10.0)

    def test_bad_bandwidth(self):
        with pytest.raises(ConfigError):
            snr_of(-100.0, 0, 6.0)


class TestResolveConcurrent:
    def test_single_transmission_ok(self):
        frame = make_frame(1, src=10, dst=20, rssi_by_rx={20: -100.0})
        out = resolve_concurrent([on_air(frame, 0, AIRTIME_NS)],
                                 TABLE)
        assert out[(20, 1)].cause == "ok"

    def test_equal_rssi_tie_both_dropped(self):
        a = make_frame(1, 10, 20, {20: -100.0})
        b = make_frame(2, 11, 20, {20: -100.0})
        out = resolve_concurrent(
            [on_air(a, 0, AIRTIME_NS),
             on_air(b, 0, AIRTIME_NS)], TABLE,
            capture_threshold_db=6.0)
        assert out[(20, 1)].cause == "collision"
        assert out[(20, 2)].cause == "collision"

    def test_capture_strongest_wins(self):
        a = make_frame(1, 10, 20, {20: -90.0})
        b = make_frame(2, 11, 20, {20: -100.0})
        out = resolve_concurrent(
            [on_air(a, 0, AIRTIME_NS),
             on_air(b, 1_000_000, 1_000_000 + AIRTIME_NS)], TABLE)
        assert out[(20, 1)].cause == "ok"
        assert out[(20, 2)].cause == "collision"

    def test_capture_needs_threshold(self):
        a = make_frame(1, 10, 20, {20: -95.0})
        b = make_frame(2, 11, 20, {20: -100.0})  # 5 dB < 6 dB threshold
        out = resolve_concurrent(
            [on_air(a, 0, AIRTIME_NS),
             on_air(b, 0, AIRTIME_NS)], TABLE)
        assert out[(20, 1)].cause == "collision"
        assert out[(20, 2)].cause == "collision"

    def test_non_overlapping_decoded_independently(self):
        a = make_frame(1, 10, 20, {20: -100.0})
        b = make_frame(2, 11, 20, {20: -100.0})
        out = resolve_concurrent(
            [on_air(a, 0, AIRTIME_NS),
             on_air(b, AIRTIME_NS, 2 * AIRTIME_NS)], TABLE)
        assert out[(20, 1)].cause == "ok"
        assert out[(20, 2)].cause == "ok"

    def test_different_sf_orthogonal(self):
        a = make_frame(1, 10, 20, {20: -100.0}, sf=12)
        b = make_frame(2, 11, 20, {20: -90.0}, sf=11)
        out = resolve_concurrent(
            [on_air(a, 0, AIRTIME_NS),
             on_air(b, 0, AIRTIME_NS)], TABLE)
        assert out[(20, 1)].cause == "ok"
        assert out[(20, 2)].cause == "ok"

    def test_captured_frame_still_gated(self):
        # strongest of the pair but below sensitivity: cause is the gate
        a = make_frame(1, 10, 20, {20: -141.0})
        b = make_frame(2, 11, 20, {20: -150.0})
        out = resolve_concurrent(
            [on_air(a, 0, AIRTIME_NS),
             on_air(b, 0, AIRTIME_NS)], TABLE)
        assert out[(20, 1)].cause == "below-sensitivity"
        assert out[(20, 2)].cause == "collision"

    def test_chained_overlap_pairwise_exclusive(self):
        # A and C do not overlap each other; B bridges both and loses twice
        a = make_frame(1, 10, 20, {20: -80.0})
        b = make_frame(2, 11, 20, {20: -90.0})
        c = make_frame(3, 12, 20, {20: -80.0})
        out = resolve_concurrent(
            [on_air(a, 0, 100),
             on_air(b, 50, 200),
             on_air(c, 150, 250)], TABLE)
        assert out[(20, 1)].cause == "ok"
        assert out[(20, 2)].cause == "collision"
        assert out[(20, 3)].cause == "ok"

    def test_at_most_one_decoded_among_pairwise_overlaps(self):
        rng = random.Random(7)
        for _ in range(300):
            n = rng.randint(2, 5)
            txs = []
            for i in range(1, n + 1):
                start = rng.randrange(0, 400)
                length = rng.randrange(50, 300)
                rssi = rng.uniform(-135.0, -60.0)
                frame = make_frame(i, 100 + i, 20, {20: rssi})
                txs.append(on_air(frame, start, start + length))
            out = resolve_concurrent(txs, TABLE)
            for i, ta in enumerate(txs):
                for tb in txs[i + 1:]:
                    if ta.start_ns < tb.end_ns and tb.start_ns < ta.end_ns:
                        decoded = [
                            out[(20, ta.frame_id)].decoded,
                            out[(20, tb.frame_id)].decoded]
                        assert sum(decoded) <= 1

    def test_matches_margin_check_for_single_tx(self):
        # with one transmitter the outcome equals the plain link-budget check
        from motesim import RadioConfig
        cfg = RadioConfig()
        rng = random.Random(11)
        for _ in range(500):
            rssi = rng.uniform(-150.0, -60.0)
            frame = make_frame(1, 10, 20, {20: rssi})
            out = resolve_concurrent([on_air(frame, 0, 1000)], TABLE)
            expected = reception_margin(cfg, rssi, snr_of(rssi, 500_000, 6.0),
                                        TABLE)
            assert out[(20, 1)].decoded == (expected == "ok")
            assert out[(20, 1)].cause == expected
