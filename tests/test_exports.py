"""The package's public names."""

import diractorus


def test_every_export_resolves():
    # a deletion that leaves its name in __all__ shows up here
    missing = [name for name in diractorus.__all__ if not hasattr(diractorus, name)]
    assert not missing
    assert len(set(diractorus.__all__)) == len(diractorus.__all__)
