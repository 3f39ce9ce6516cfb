import importlib
import pkgutil

import pytest

import cubint

# `cubint.__main__` runs the command line when imported
MODULES = sorted("cubint." + m.name for m in pkgutil.iter_modules(cubint.__path__)
                 if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []
