"""Every exported name resolves, so no export outlives what it names."""

import importlib
import pkgutil

import pytest

import socialgrad

MODULES = ["socialgrad"] + [f"socialgrad.{info.name}"
                            for info in pkgutil.iter_modules(socialgrad.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
