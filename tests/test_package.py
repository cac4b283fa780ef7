"""The package's public name list and its record types."""

import inspect
import math

import pytest

import motesim
from motesim import ConfigError, channel, phy, stack, wurx

# names the package exported before the uncharged energy figures, the
# second reception gate, the two-part node event, the transmission record
# (a frame carries its own airtime) and the SNR helper were removed
REMOVED = {"airtime_s", "tx_energy", "ook_tx_energy", "reception_margin",
           "ReceptionDecision", "NodeEventKind", "Transmission", "snr_of"}


def test_every_public_name_resolves_once():
    names = motesim.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(motesim, name), name
    assert not REMOVED & set(names)
    assert not any(hasattr(motesim, name) for name in REMOVED)


# the immutable records built on the per-event path, with their fields in
# constructor order
RECORDS = [
    (channel.ReceptionOutcome, ("cause", "rssi_dbm", "snr_db",
                                "rssi_margin_db", "snr_margin_db")),
    (stack.UnicastMessage, ("src", "dst", "seqno", "payload")),
    (wurx.WubEmission, ("frame", "duration_ns", "duty")),
    (wurx.WurxOutcome, ("kind", "decode_time_ns", "interrupt")),
]


@pytest.mark.parametrize("cls, names", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_keeps_its_fields_and_is_immutable(cls, names):
    assert tuple(inspect.signature(cls).parameters) == names
    record = cls(*range(len(names)))
    assert [getattr(record, name) for name in names] == list(range(len(names)))
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, -1)


def test_record_defaults_and_decoded():
    assert wurx.WurxOutcome("busy") == wurx.WurxOutcome("busy", 0, False)
    for cause in ("ok", "collision", "below-sensitivity", "snr-floor"):
        outcome = channel.ReceptionOutcome(cause, -100.0, 5.0, 20.0, 12.5)
        assert outcome.decoded == (cause == "ok")


# the records that check their values when built, each with one bad value
VALIDATED = [
    (channel.Position(), {"y": math.nan}),
    (channel.ChannelParams(), {"path_loss_exponent": 7.0}),
    (phy.RadioConfig(), {"spreading_factor": 13}),
    (wurx.WakeUpFrame(0x2A), {"address": 256}),
]


@pytest.mark.parametrize("record, bad", VALIDATED,
                         ids=[type(r).__name__ for r, _ in VALIDATED])
def test_every_construction_checks_values(record, bad):
    cls = type(record)
    values = {**record._asdict(), **bad}
    with pytest.raises(ConfigError):
        record._replace(**bad)
    with pytest.raises(ConfigError):
        cls._make(values.values())
    with pytest.raises(ConfigError):
        cls(**values)
    assert record._replace() == record
    assert cls._make(record) == record
