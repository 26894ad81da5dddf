"""The public surface: every module's ``__all__`` and the package exports agree."""

import importlib
import inspect
import pkgutil

import pytest

import bnscore

MODULES = [
    importlib.import_module(f"bnscore.{info.name}")
    for info in pkgutil.iter_modules(bnscore.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_listed_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_every_package_export_is_listed_in_its_module():
    unlisted = [
        name
        for name, obj in vars(bnscore).items()
        if not name.startswith("_")
        and not inspect.ismodule(obj)
        and not any(name in m.__all__ and getattr(m, name) is obj for m in MODULES)
    ]
    assert unlisted == []
