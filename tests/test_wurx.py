import pytest

from motesim import ConfigError, WakeUpFrame, receive_wub, send_wub, \
    wub_airtime, wurx
from motesim.engine import power_profile
from motesim.node import WurxSpec
from motesim.wurx import ook_duty


class TestWubAirtime:
    def test_16_bits_at_1kbps(self):
        frame = WakeUpFrame(address=0x2A)
        assert wub_airtime(frame) == 16_000_000  # 16 ms

    def test_halving_rate_doubles_airtime(self):
        fast = WakeUpFrame(address=1, bit_rate_bps=1000.0)
        slow = WakeUpFrame(address=1, bit_rate_bps=500.0)
        assert wub_airtime(slow) == 2 * wub_airtime(fast)

    def test_no_preamble(self):
        frame = WakeUpFrame(address=0, preamble_bits=0)
        assert wub_airtime(frame) == 8_000_000  # address bits only

    @pytest.mark.parametrize("kwargs", [
        {"address": -1}, {"address": 256}, {"bit_rate_bps": 0.0},
        {"bit_rate_bps": 1500.0}, {"preamble_bits": -1},
    ])
    def test_invalid_frames(self, kwargs):
        with pytest.raises(ConfigError):
            WakeUpFrame(**{"address": 1, **kwargs})


class TestFrameBits:
    def test_msb_first(self):
        bits = WakeUpFrame(address=0x2A, preamble_bits=2).bits()
        assert bits == (1, 1, 0, 0, 1, 0, 1, 0, 1, 0)

    def test_duty(self):
        assert ook_duty(()) == 0.0
        assert ook_duty(WakeUpFrame(address=0xFF).bits()) == 1.0
        assert ook_duty(WakeUpFrame(address=0x00).bits()) == 0.5


def charged_wub_energy_j(emission, lora_tx_w=0.240):
    """What the ledger charges for the burst: ``lora_tx`` power scaled by
    the duty, over the burst's airtime (``MoteDevice.begin_wub_tx``)."""
    return lora_tx_w * emission.duty * emission.duration_ns / 1e9


class TestSendWub:
    def test_all_ones_full_duty(self):
        emission = send_wub(0xFF)
        assert emission.duration_ns == 16_000_000
        assert emission.duty == 1.0
        assert charged_wub_energy_j(emission) == pytest.approx(3.84e-3,
                                                               rel=1e-12)

    def test_half_duty_address_zero(self):
        emission = send_wub(0x00)
        assert emission.duty == 0.5
        assert charged_wub_energy_j(emission) == pytest.approx(1.92e-3,
                                                               rel=1e-12)

    def test_energy_bounded_by_full_carrier(self):
        for address in range(0, 256, 7):
            emission = send_wub(address)
            ceiling = 0.240 * emission.duration_ns / 1e9
            assert charged_wub_energy_j(emission) <= ceiling + 1e-15
            if address == 0xFF:
                assert charged_wub_energy_j(emission) == pytest.approx(ceiling)

    def test_energy_matches_bit_count_oracle(self):
        for address in range(256):
            emission = send_wub(address)
            ones = 8 + bin(address).count("1")
            assert emission.duty == ones / 16
            assert charged_wub_energy_j(emission) == pytest.approx(
                0.240 * ones / 1000.0, rel=1e-12)


class TestReceiveWub:
    def make_spec(self, address=0x2A):
        return WurxSpec(address=address)

    def test_match_above_sensitivity_interrupts(self):
        outcome = receive_wub(self.make_spec(), WakeUpFrame(address=0x2A),
                              -45.0)
        assert outcome.kind == "decoding" and outcome.interrupt

    def test_mismatch_spends_energy_no_interrupt(self):
        # the ledger charges wurx_decode power until the burst ends
        outcome = receive_wub(self.make_spec(), WakeUpFrame(address=0x2B),
                              -45.0)
        assert outcome is wurx.REJECT

    def test_below_sensitivity_ignored(self):
        outcome = receive_wub(self.make_spec(), WakeUpFrame(address=0x2A),
                              -55.0)
        assert outcome is wurx.IGNORED and not outcome.interrupt

    def test_boundary_sensitivity_decodes(self):
        outcome = receive_wub(self.make_spec(), WakeUpFrame(address=0x2A),
                              -50.0)
        assert outcome.kind == "decoding"

    def test_no_interrupt_for_any_mismatch_sample(self):
        # full 256x256 exhaustive sweep lives in the acceptance suite
        spec = self.make_spec(address=0x80)
        for sent in range(256):
            outcome = receive_wub(spec, WakeUpFrame(address=sent), -40.0)
            assert outcome.interrupt == (sent == 0x80)


class TestBurstBuiltOncePerTarget:
    """A run builds its target's burst once, and ``send_wub`` raises on
    bad arguments at every call."""

    def test_power_profile_builds_one_wake_up_frame(self, monkeypatch):
        built = []

        class CountedFrame(wurx.WakeUpFrame):
            # counts every construction, whatever checks the values
            __slots__ = ()

            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

        monkeypatch.setattr(wurx, "WakeUpFrame", CountedFrame)
        metrics = power_profile(cycles=50)
        assert len(metrics.exchanges) == 50
        assert len(built) == 1  # the hook sees the one build

    def test_repeat_calls_share_one_burst(self):
        assert send_wub(0x2A) == send_wub(0x2A)
        assert send_wub(0x2A) != send_wub(0x2B)

    @pytest.mark.parametrize("kwargs", [
        {"target_address": 300}, {"target_address": -1},
        {"target_address": 1, "bit_rate_bps": 2000.0},
        {"target_address": 1, "preamble_bits": -1},
    ])
    def test_bad_arguments_raise_on_every_call(self, kwargs):
        for _ in range(3):
            with pytest.raises(ConfigError):
                send_wub(**kwargs)
