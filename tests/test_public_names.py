"""Every name a module lists in __all__ exists, so `import *` works."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["quasifree", "detector", "disjointness",
                                    "liouville"])
def test_all_names_exist(module):
    mod = importlib.import_module("kmslab." + module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert missing == []
