"""The package's public name list and its record types."""

import importlib
import inspect
import math
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import typing

import pytest

import motesim
from motesim import ConfigError, channel, node, phy, stack, wurx

# names the package exported before the uncharged energy figures, the
# second reception gate, the two-part node event, the transmission record
# (a frame carries its own airtime), the SNR helper, the receiver state
# that copied a node's wurx block, and the wake-up frame, duty helper and
# arrival outcomes that a node's wurx block now stands for were removed
REMOVED = {"airtime_s", "tx_energy", "ook_tx_energy", "reception_margin",
           "ReceptionDecision", "NodeEventKind", "Transmission", "snr_of",
           "WurxState", "WakeUpFrame", "ook_duty", "WurxOutcome", "IGNORED",
           "WAKE", "REJECT", "NodeEvent"}


def test_every_public_name_resolves_once():
    names = motesim.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(motesim, name), name
    assert not REMOVED & set(names)
    assert not any(hasattr(motesim, name) for name in REMOVED)
    assert not any(hasattr(wurx, name) for name in REMOVED)


# the immutable records of the per-event path, with their fields in
# constructor order; a state a transition returns is its (mcu, radio) pair
# and carries no flag for the engine
RECORDS = [
    (channel.ReceptionOutcome, ("cause", "rssi_dbm", "snr_db",
                                "rssi_margin_db", "snr_margin_db")),
    (stack.UnicastMessage, ("src", "dst", "seqno", "payload")),
    (wurx.WubEmission, ("address", "duration_ns", "duty")),
    (node.TransitionResult, ("mcu", "radio", "label")),
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
    # a wurx block's defaults are the paper's wake-up link, and no other
    # record holds them
    assert node.WurxSpec(7) == (7, -50.0, 1000.0, 8, 1.8e-6, 284e-6)
    for cause in ("ok", "collision", "below-sensitivity", "snr-floor"):
        outcome = channel.ReceptionOutcome(cause, -100.0, 5.0, 20.0, 12.5)
        assert outcome.decoded == (cause == "ok")


# the records that check their values when built, each with one bad value
VALIDATED = [
    (channel.Position(), {"y": math.nan}),
    (channel.ChannelParams(), {"path_loss_exponent": 7.0}),
    (phy.RadioConfig(), {"spreading_factor": 13}),
    (node.WurxSpec(0x2A), {"address": 256}),
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


# every typing.NamedTuple record the package defines, in any module
NAMED_TUPLES = [
    cls
    for info in pkgutil.iter_modules(motesim.__path__)
    for module in [importlib.import_module(f"motesim.{info.name}")]
    for cls in vars(module).values()
    if isinstance(cls, type) and issubclass(cls, tuple)
    and hasattr(cls, "_fields") and cls.__module__ == module.__name__
]


@pytest.mark.parametrize("cls", NAMED_TUPLES,
                         ids=[cls.__qualname__ for cls in NAMED_TUPLES])
def test_record_annotations_are_types(cls):
    # a string annotation costs typing.NamedTuple a compile() per field at
    # import; the file parser reads the resolved types
    assert not [name for name, hint in cls.__annotations__.items()
                if isinstance(hint, str)]
    assert tuple(typing.get_type_hints(cls)) == cls._fields


ROOT = pathlib.Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
EXAMPLE = ROOT / "scenarios" / "example.yaml"


def test_a_run_built_in_code_leaves_the_file_parser_unloaded():
    # a fresh interpreter: load and from_dict import the parser and PyYAML
    # on their first call, not at import or on a preset's run
    code = (
        "import sys, motesim\n"
        "motesim.power_profile(cycles=2)\n"
        "loaded = {'motesim.scenario_file', 'yaml'} & set(sys.modules)\n"
        "assert not loaded, loaded\n"
        "print(motesim.scenario_hash(motesim.load(sys.argv[1])))\n")
    result = subprocess.run(
        [sys.executable, "-c", code, str(EXAMPLE)], check=True,
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.stdout == "cb8dc86307b7bbcf\n"


def test_readme_library_use_runs(tmp_path, monkeypatch):
    # the first code block of "Library use", as a user would paste it
    section = README.read_text().split("\n## Library use\n", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, "README.md", "exec"), {})
    assert (tmp_path / "out" / "sweep.csv").exists()
