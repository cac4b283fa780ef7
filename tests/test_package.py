"""The package's public name list."""

import motesim

# names the package exported before the uncharged energy figures and the
# second reception gate were removed
REMOVED = {"airtime_s", "tx_energy", "ook_tx_energy", "reception_margin",
           "ReceptionDecision"}


def test_every_public_name_resolves_once():
    names = motesim.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert hasattr(motesim, name), name
    assert not REMOVED & set(names)
    assert not any(hasattr(motesim, name) for name in REMOVED)
