"""The public surface: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import bayescv

MODULES = ["bayescv"] + [
    f"bayescv.{info.name}" for info in pkgutil.iter_modules(bayescv.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_star_import_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    assert set(exported) <= set(namespace)
