"""Every public name the package declares can be imported."""

import importlib
import pkgutil

import pytest

import greenwood

MODULES = sorted(f"greenwood.{m.name}" for m in pkgutil.iter_modules(greenwood.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names {missing}"


def test_star_import():
    namespace: dict = {}
    exec("from greenwood import *", namespace)
    assert "run_test" in namespace and "sample" in namespace
