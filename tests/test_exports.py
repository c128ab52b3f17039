"""Every name a module lists in __all__ resolves in that module."""

import importlib
import pkgutil

import pytest

import burnside

MODULES = ["burnside"] + [
    f"burnside.{info.name}"
    for info in pkgutil.iter_modules(burnside.__path__)
    if info.name != "__main__"  # importing it runs the CLI
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "duplicate names in __all__"
    assert [n for n in exported if not hasattr(module, n)] == []
