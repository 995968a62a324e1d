"""The public surface: every name a module lists in ``__all__`` exists."""

import importlib
import pkgutil
import subprocess
import sys
from pathlib import Path

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


def test_package_root_loads_no_numpy():
    # The root holds only __version__; every other name is imported from
    # its module, so importing the package alone stays cheap.
    src = str(Path(bayescv.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import bayescv; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
