import importlib
import pkgutil

import pytest

import clag

MODULES = ["clag"] + [f"clag.{m.name}"
                      for m in pkgutil.iter_modules(clag.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    # the benchmark's tracer picks its spans from __all__
    mod = importlib.import_module(name)
    missing = [attr for attr in getattr(mod, "__all__", [])
               if not hasattr(mod, attr)]
    assert not missing
