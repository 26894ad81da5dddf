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
    """The package exports exactly the union of its modules' ``__all__``
    (``cli`` is not imported by the package)."""
    listed = [
        (name, getattr(m, name))
        for m in MODULES
        if m is not bnscore.cli
        for name in m.__all__
    ]
    exported = {
        name: obj
        for name, obj in vars(bnscore).items()
        if not name.startswith("_") and not inspect.ismodule(obj)
    }
    assert len(dict(listed)) == len(listed)  # no name in two lists
    assert exported == dict(listed)
    with pytest.raises(bnscore.DatasetFormatError):
        raise bnscore.HeaderMismatch("header names the wrong variables")
