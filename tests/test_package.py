"""Package surface: every exported name exists."""

import importlib
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
