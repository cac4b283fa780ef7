import pathlib

import pytest

from motesim import ConfigError, receive_wub, send_wub, wub_airtime, wurx
from motesim.cli import main
from motesim.engine import power_profile
from motesim.node import WurxSpec
from oracles import wake_up_frame_bits

EXAMPLE = pathlib.Path(__file__).resolve().parents[1] / "scenarios" / \
    "example.yaml"


class TestWubAirtime:
    def test_16_bits_at_1kbps(self):
        assert wub_airtime(WurxSpec(address=0x2A)) == 16_000_000  # 16 ms

    def test_halving_rate_doubles_airtime(self):
        fast = WurxSpec(address=1, bit_rate_bps=1000.0)
        slow = WurxSpec(address=1, bit_rate_bps=500.0)
        assert wub_airtime(slow) == 2 * wub_airtime(fast)

    def test_no_preamble(self):
        spec = WurxSpec(address=0, preamble_bits=0)
        assert wub_airtime(spec) == 8_000_000  # address bits only

    # each framing rule of a wurx block, broken, with its message
    @pytest.mark.parametrize("kwargs, message", [
        ({"address": -1}, "wake-up address must be 0..255, got -1"),
        ({"address": 256}, "wake-up address must be 0..255, got 256"),
        ({"bit_rate_bps": 0.0}, "bit_rate_bps must be in (0, 1000], got 0.0"),
        ({"bit_rate_bps": 1000.5},
         "bit_rate_bps must be in (0, 1000], got 1000.5"),
        ({"preamble_bits": -1}, "preamble_bits must be >= 0"),
    ], ids=[f"kwargs{i}" for i in range(5)])
    def test_invalid_frames(self, kwargs, message, tmp_path, capsys):
        with pytest.raises(ConfigError) as raised:
            WurxSpec(**{"address": 1, **kwargs})
        assert str(raised.value) == f"wurx: {message}"
        with pytest.raises(ConfigError):
            WurxSpec(address=1)._replace(**kwargs)
        # the same rule and message from a scenario file, exit code 1
        (key, value), = kwargs.items()
        text = EXAMPLE.read_text()
        block = "    # wurx:                    "
        assert text.count(block) == 1
        path = tmp_path / "bad_wurx.yaml"
        path.write_text(text.replace(
            block, f"    wurx: {{address: 9, {key}: {value}}}  # "))
        assert main(["run", str(path), "--validate-only"]) == 1
        assert capsys.readouterr().err == (
            f"scenario error: node 2: wurx: {message}\n")


class TestFrameBits:
    def test_msb_first(self):
        # the oracle's layout, which the duty test below counts
        assert wake_up_frame_bits(0x2A, 2) == [1, 1, 0, 0, 1, 0, 1, 0, 1, 0]

    def test_duty(self):
        # one correctly rounded int/int division on each side: bit-identical
        for preamble_bits in (0, 1, 8, 13):
            for address in range(256):
                bits = wake_up_frame_bits(address, preamble_bits)
                emission = send_wub(WurxSpec(address=address,
                                             preamble_bits=preamble_bits))
                assert emission.duty == sum(bits) / len(bits)
                assert emission.duration_ns == len(bits) * 1_000_000


def charged_wub_energy_j(emission, lora_tx_w=0.240):
    """What the ledger charges for the burst: ``lora_tx`` power scaled by
    the duty, over the burst's airtime (``MoteDevice.begin_wub_tx``)."""
    return lora_tx_w * emission.duty * emission.duration_ns / 1e9


class TestSendWub:
    def test_all_ones_full_duty(self):
        assert send_wub(WurxSpec(address=0x2A)) == (0x2A, 16_000_000, 11 / 16)
        emission = send_wub(WurxSpec(address=0xFF))
        assert emission.duration_ns == 16_000_000
        assert emission.duty == 1.0
        assert charged_wub_energy_j(emission) == pytest.approx(3.84e-3,
                                                               rel=1e-12)

    def test_half_duty_address_zero(self):
        emission = send_wub(WurxSpec(address=0x00))
        assert emission.duty == 0.5
        assert charged_wub_energy_j(emission) == pytest.approx(1.92e-3,
                                                               rel=1e-12)

    def test_energy_bounded_by_full_carrier(self):
        for address in range(0, 256, 7):
            emission = send_wub(WurxSpec(address=address))
            ceiling = 0.240 * emission.duration_ns / 1e9
            assert charged_wub_energy_j(emission) <= ceiling + 1e-15
            if address == 0xFF:
                assert charged_wub_energy_j(emission) == pytest.approx(ceiling)

    def test_energy_matches_bit_count_oracle(self):
        for address in range(256):
            emission = send_wub(WurxSpec(address=address))
            ones = 8 + bin(address).count("1")
            assert emission.duty == ones / 16
            assert charged_wub_energy_j(emission) == pytest.approx(
                0.240 * ones / 1000.0, rel=1e-12)


class TestReceiveWub:
    """``receive_wub`` gives None below sensitivity, else the interrupt
    flag."""

    SPEC = WurxSpec(address=0x2A)

    def test_match_above_sensitivity_interrupts(self):
        assert receive_wub(self.SPEC, 0x2A, -45.0) is True

    def test_mismatch_spends_energy_no_interrupt(self):
        # decoding: the ledger charges wurx_decode power until the burst ends
        assert receive_wub(self.SPEC, 0x2B, -45.0) is False

    def test_below_sensitivity_ignored(self):
        assert receive_wub(self.SPEC, 0x2A, -55.0) is None

    def test_boundary_sensitivity_decodes(self):
        assert receive_wub(self.SPEC, 0x2A, -50.0) is True
        deaf = WurxSpec(address=0x2A, sensitivity_dbm=-40.0)
        assert receive_wub(deaf, 0x2A, -45.0) is None
        assert receive_wub(deaf, 0x2A, -40.0) is True

    def test_no_interrupt_for_any_mismatch_sample(self):
        # full 256x256 exhaustive sweep lives in the acceptance suite
        spec = WurxSpec(address=0x80)
        for sent in range(256):
            assert receive_wub(spec, sent, -40.0) is (sent == 0x80)


class TestBurstBuiltOncePerTarget:
    """A run builds its target's burst once, from the target's wurx block,
    and decides every arrival of it with ``receive_wub``."""

    def test_power_profile_builds_one_wake_up_frame(self, monkeypatch):
        built, arrivals = [], []
        send, receive = wurx.send_wub, wurx.receive_wub

        def counted_send(spec):
            built.append(spec)
            return send(spec)

        def counted_receive(spec, address, rssi_dbm):
            arrivals.append(address)
            return receive(spec, address, rssi_dbm)

        monkeypatch.setattr(wurx, "send_wub", counted_send)
        monkeypatch.setattr(wurx, "receive_wub", counted_receive)
        metrics = power_profile(cycles=50)
        assert len(metrics.exchanges) == 50
        assert built == [WurxSpec(address=0x2A)]
        assert arrivals == [0x2A] * 50

    def test_repeat_calls_share_one_burst(self):
        assert send_wub(WurxSpec(address=0x2A)) == send_wub(
            WurxSpec(address=0x2A))
        assert send_wub(WurxSpec(address=0x2A)) != send_wub(
            WurxSpec(address=0x2B))

    @pytest.mark.parametrize("kwargs", [
        {"address": 300}, {"address": -1},
        {"address": 1, "bit_rate_bps": 2000.0},
        {"address": 1, "preamble_bits": -1},
    ])
    def test_bad_arguments_raise_on_every_call(self, kwargs):
        # a burst is built only from a checked wurx block, and every
        # construction of one checks it
        good = WurxSpec(address=7)
        for _ in range(3):
            with pytest.raises(ConfigError):
                WurxSpec(**kwargs)
            with pytest.raises(ConfigError):
                good._replace(**kwargs)
