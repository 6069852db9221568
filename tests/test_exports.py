"""Every name a medcurve module lists in __all__ exists in that module."""

import importlib
import pkgutil

import pytest

import medcurve

MODULES = [f"medcurve.{info.name}" for info in pkgutil.iter_modules(medcurve.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_exist(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
