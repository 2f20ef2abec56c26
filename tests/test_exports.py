"""Every exported name resolves: a deleted function whose name was left in
an ``__all__`` list fails here rather than at a user's ``import *``."""

import importlib
import pkgutil

import pytest

import cofsat

MODULES = [cofsat] + [
    importlib.import_module(f"cofsat.{info.name}")
    for info in pkgutil.iter_modules(cofsat.__path__)]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert module.__all__, f"{module.__name__} exports nothing"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
