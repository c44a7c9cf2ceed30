"""Public names: every name a module lists in ``__all__`` exists, and star
imports of every module and of the package succeed."""

import importlib
import pkgutil

import pytest

import mechscm
from mechscm import core

MODULES = sorted(info.name for info in pkgutil.iter_modules(mechscm.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_names_exist_and_star_import(name):
    module = importlib.import_module(f"mechscm.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    exec(f"from mechscm.{name} import *", {})


def test_package_reexports_only_public_core_names():
    exec("from mechscm import *", {})
    reexported = {
        n
        for n, v in vars(mechscm).items()
        if not n.startswith("_") and getattr(v, "__module__", None) == "mechscm.core"
    }
    assert "Setting" in reexported and reexported <= set(core.__all__)
