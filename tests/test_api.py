"""The public surface: every module's ``__all__`` and the package exports
agree, and every listed name has a user outside the tests."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import bnscore
from bnscore.cli import _PARSE_ERRORS, _VALIDATION_ERRORS

MODULES = [
    importlib.import_module(f"bnscore.{info.name}")
    for info in pkgutil.iter_modules(bnscore.__path__)
]

ROOT = Path(__file__).resolve().parents[1]
USER_DIRS = ("src/bnscore", "demos", "tools", "perfbench")


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


def test_every_exported_error_maps_to_an_exit_code():
    """The package exports one error class per failure family, and ``cli.main``
    maps each to exit code 2 (a file it cannot parse) or 3 (invalid input):
    an error class added without a mapping would end in a traceback."""
    errors = {
        name
        for name, obj in vars(bnscore).items()
        if inspect.isclass(obj) and issubclass(obj, BaseException)
    }
    assert errors == {
        "ModelError", "NetworkSyntaxError", "DatasetFormatError", "DomainError", "DegenerateInput"
    }
    unmapped = [name for name in errors
                if not issubclass(getattr(bnscore, name), _PARSE_ERRORS + _VALIDATION_ERRORS)]
    assert unmapped == []


def _references(path):
    """Every name a file reads, imports or takes as an attribute; a name it
    only binds (a def, a class, an assignment target) or spells in a string,
    as in ``__all__``, is not a reference."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def test_every_listed_name_is_used_outside_the_tests():
    """No public name exists only for its own tests: each one in a module's
    ``__all__`` is referenced by the package, a demo, a tool or perfbench."""
    used = {name for d in USER_DIRS for path in (ROOT / d).rglob("*.py")
            for name in _references(path)}
    unused = [f"{m.__name__}.{name}" for m in MODULES for name in m.__all__ if name not in used]
    assert unused == []
