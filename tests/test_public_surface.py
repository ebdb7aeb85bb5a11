import importlib
import pkgutil

import pytest

import sdembed

MODULES = ["sdembed", *(f"sdembed.{info.name}" for info in pkgutil.iter_modules(sdembed.__path__))]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
