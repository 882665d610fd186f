"""Every name a module exports in ``__all__`` resolves on that module."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["fermatreg", "fermatreg.specialfn", "fermatreg.fermat",
                                    "fermatreg.regulator", "fermatreg.verify"])
def test_all_names_resolve(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
