"""The export surface of every package.

Each package ``__init__`` declares a table of the names it exports and
the submodule that defines each one; the submodule is imported the
first time one of its names is used.  These checks read the table from
the source, so they hold whatever this process happened to import
before them.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import repro

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)


def declared(package: str) -> dict:
    """The export table of *package*: submodule -> exported names."""
    init = Path(importlib.import_module(package).__file__)
    for node in ast.walk(ast.parse(init.read_text(encoding="utf-8"))):
        if (isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{package} declares no export table")


def test_every_package_is_covered():
    assert {"repro", "repro.obs", "repro.simkernel",
            "repro.controlplane"} <= set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_all_is_the_table(package):
    pkg = importlib.import_module(package)
    names = [n for names in declared(package).values() for n in names]
    assert len(names) == len(set(names)), "a name is exported twice"
    assert pkg.__all__ == sorted(names)


@pytest.mark.parametrize("package", PACKAGES)
def test_each_name_is_its_defining_modules_object(package):
    pkg = importlib.import_module(package)
    listed = dir(pkg)
    for sub, names in declared(package).items():
        module = importlib.import_module(f"{package}.{sub}")
        for name in names:
            assert getattr(pkg, name) is getattr(module, name), name
            assert name in listed, name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_all(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    pkg = importlib.import_module(package)
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_export"):
        pkg.no_such_export
    assert not hasattr(pkg, "no_such_export")
    assert getattr(pkg, "no_such_export", 42) == 42


def test_listed_submodules_resolve_as_attributes():
    assert repro.obs.export is importlib.import_module("repro.obs.export")
    assert "testbeds" in dir(repro)
