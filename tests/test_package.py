"""Package surface: every exported name exists, and every public function
or class a module defines is exported."""

import importlib
import inspect
import pkgutil

import pytest

import baserisk

MODULES = sorted(
    f"baserisk.{info.name}" for info in pkgutil.iter_modules(baserisk.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert exported, f"{name} declares no __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_every_public_definition(name):
    module = importlib.import_module(name)
    defined = [
        attr for attr, value in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(value) or inspect.isclass(value))
        and value.__module__ == name
    ]
    assert sorted(set(defined) - set(getattr(module, "__all__", []))) == []
