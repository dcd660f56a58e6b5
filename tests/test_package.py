"""The public name lists of the package and its modules."""

import importlib
import pkgutil

import pytest

import bck_sim

MODULES = ["bck_sim"] + [f"bck_sim.{info.name}" for info in pkgutil.iter_modules(bck_sim.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist_and_star_import_works(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes {missing}"
    namespace = {}
    exec(f"from {name} import *", namespace)
    for attr in getattr(module, "__all__", ()):
        assert namespace[attr] is getattr(module, attr)
