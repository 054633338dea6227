import importlib
import pkgutil

import pytest

import pdeltaflow

_MODULES = ["pdeltaflow"] + [f"pdeltaflow.{m.name}" for m in pkgutil.iter_modules(pdeltaflow.__path__)]


@pytest.mark.parametrize("name", _MODULES)
def test_every_all_name_resolves(name):
    mod = importlib.import_module(name)
    assert [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)] == []
