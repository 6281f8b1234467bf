"""The package's export list names only what the package defines, once."""

import nablamu


def test_every_export_resolves_once():
    missing = [name for name in nablamu.__all__ if not hasattr(nablamu, name)]
    assert not missing, missing
    assert len(set(nablamu.__all__)) == len(nablamu.__all__)
