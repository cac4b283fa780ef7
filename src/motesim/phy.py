"""LoRa physical-layer arithmetic: time-on-air and the sensitivity table.

The table's gates are applied in one place, ``channel.decide_reception``,
and energy is charged only by the node's ledger, so this module computes
neither margins nor energy.

All durations are integer nanoseconds so that event timestamps, ledger
bookkeeping and airtime sums stay exact. For the three supported bandwidths
(125/250/500 kHz) every symbol time is an exact integer nanosecond count.
"""

import functools
import json
from importlib import resources
from typing import NamedTuple

from .errors import ConfigError, TableEntryMissing, validated

NS_PER_S = 1_000_000_000

ALLOWED_BANDWIDTHS_HZ = (125_000, 250_000, 500_000)

DEFAULT_SENSITIVITY_FILE = "sensitivity_sx1276.json"


@validated
class RadioConfig(NamedTuple):
    """One LoRa transceiver parameter set.

    ``coding_rate`` is the denominator d of the 4/d code (5..8).
    Defaults follow the transceiver's framing defaults: 8 preamble symbols,
    explicit header, CRC on, low-data-rate optimisation off.
    """

    frequency_hz: float = 868e6
    spreading_factor: int = 12
    bandwidth_hz: int = 500_000
    coding_rate: int = 6
    tx_power_dbm: float = 14.0
    preamble_symbols: int = 8
    explicit_header: bool = True
    crc_on: bool = True
    low_data_rate_optimize: bool = False

    def _check(self):
        if not 6 <= self.spreading_factor <= 12:
            raise ConfigError(
                f"spreading_factor must be 6..12, got {self.spreading_factor}")
        if self.bandwidth_hz not in ALLOWED_BANDWIDTHS_HZ:
            raise ConfigError(
                f"bandwidth_hz must be one of {ALLOWED_BANDWIDTHS_HZ}, "
                f"got {self.bandwidth_hz}")
        if not 5 <= self.coding_rate <= 8:
            raise ConfigError(
                f"coding_rate denominator must be 5..8, got {self.coding_rate}")
        if not -4.0 <= self.tx_power_dbm <= 20.0:
            raise ConfigError(
                f"tx_power_dbm must be within [-4, +20], got {self.tx_power_dbm}")
        if not 0 <= self.preamble_symbols <= 0xFFFF:
            raise ConfigError("preamble_symbols must be 0..65535, the range "
                              "of the 16-bit LoRa preamble-length register")
        if self.frequency_hz <= 0:
            raise ConfigError("frequency_hz must be positive")


def symbol_time_ns(cfg: RadioConfig) -> int:
    """Duration of one LoRa symbol, 2^SF / BW, in exact integer ns."""
    num = (1 << cfg.spreading_factor) * NS_PER_S
    # exact for the three allowed bandwidths
    return num // cfg.bandwidth_hz


def payload_symbol_count(cfg: RadioConfig, payload_len: int) -> int:
    """Number of payload symbols after the preamble (includes the 8-symbol
    base block), per the transceiver datasheet packet-duration formula."""
    if payload_len < 0:
        raise ConfigError("payload_len must be >= 0")
    sf = cfg.spreading_factor
    crc = 1 if cfg.crc_on else 0
    ih = 0 if cfg.explicit_header else 1
    de = 1 if cfg.low_data_rate_optimize else 0
    num = 8 * payload_len - 4 * sf + 28 + 16 * crc - 20 * ih
    den = 4 * (sf - 2 * de)
    ceil = -(-num // den)
    return 8 + max(ceil * cfg.coding_rate, 0)


def time_on_air(cfg: RadioConfig, payload_len: int) -> int:
    """Frame airtime (preamble + payload block) in integer nanoseconds."""
    t_sym = symbol_time_ns(cfg)
    # preamble lasts (n + 4.25) symbols; t_sym is divisible by 4
    t_preamble = (4 * cfg.preamble_symbols + 17) * (t_sym // 4)
    return t_preamble + payload_symbol_count(cfg, payload_len) * t_sym


class SensitivityTable:
    """Per-(SF, BW) receive sensitivity and per-SF SNR demodulation floor.

    Shipped as a versioned JSON data file. The table is anchored at the
    evaluated configuration (SF12 / 500 kHz = -140 dBm, the minimum workable
    RSSI for this link class) and keeps datasheet-style spacing elsewhere:
    about 3 dB per bandwidth doubling and 2.5 dB per spreading-factor step.
    """

    def __init__(self, sensitivity_dbm: dict, snr_floor_db: dict,
                 version: int = 1):
        """``sensitivity_dbm`` maps (sf, bandwidth_hz) -> dBm;
        ``snr_floor_db`` maps sf -> dB."""
        self.version = version
        self._sens = {(int(sf), int(bw)): float(v)
                      for (sf, bw), v in sensitivity_dbm.items()}
        self._floor = {int(sf): float(v) for sf, v in snr_floor_db.items()}
        self._check_invariants()

    def _check_invariants(self):
        sfs = sorted({sf for sf, _ in self._sens})
        for sf in sfs:
            bws = sorted(bw for s, bw in self._sens if s == sf)
            vals = [self._sens[(sf, bw)] for bw in bws]
            # wider bandwidth -> worse (higher) sensitivity
            if any(nxt <= cur for cur, nxt in zip(vals, vals[1:])):
                raise ConfigError(
                    f"sensitivity must worsen with bandwidth at SF{sf}")
        floors = [self._floor[sf] for sf in sorted(self._floor)]
        # higher spreading factor -> lower demodulation floor
        if any(nxt >= cur for cur, nxt in zip(floors, floors[1:])):
            raise ConfigError(
                "snr_demod_floor must decrease as spreading factor grows")

    @classmethod
    @functools.cache
    def load_default(cls) -> "SensitivityTable":
        """The shipped table, read and parsed once per process and then
        shared: nothing mutates a table."""
        ref = resources.files("motesim").joinpath(
            "data", DEFAULT_SENSITIVITY_FILE)
        raw = json.loads(ref.read_text(encoding="utf-8"))
        try:  # the constructor converts the keys and values
            sens = {(sf, bw): v for sf, row in raw["sensitivity_dbm"].items()
                    for bw, v in row.items()}
            return cls(sens, raw["snr_demod_floor_db"],
                       version=int(raw["format_version"]))
        except KeyError as exc:
            raise ConfigError(f"sensitivity table missing key: {exc}") from exc

    def sensitivity(self, spreading_factor: int, bandwidth_hz: int) -> float:
        try:
            return self._sens[(spreading_factor, bandwidth_hz)]
        except KeyError:
            raise TableEntryMissing(
                f"no sensitivity entry for SF{spreading_factor} / "
                f"{bandwidth_hz} Hz") from None

    def snr_floor(self, spreading_factor: int) -> float:
        try:
            return self._floor[spreading_factor]
        except KeyError:
            raise TableEntryMissing(
                f"no SNR floor entry for SF{spreading_factor}") from None
