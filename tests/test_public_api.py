"""The public surface: every name a module lists in ``__all__`` exists and
is used somewhere in the package or the benchmark."""

import importlib
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import bayescv

MODULES = ["bayescv"] + [
    f"bayescv.{info.name}" for info in pkgutil.iter_modules(bayescv.__path__)
]
ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "bayescv").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))


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


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_is_used(name):
    # A use is any mention outside the name's own definition and its
    # __all__ entry: an import, a call, or a hook by name in perfbench.
    module = importlib.import_module(name)
    own = Path(module.__file__).resolve()
    lines = {path: path.read_text(encoding="utf-8").splitlines() for path in SOURCES}
    unused = []
    for attr in getattr(module, "__all__", []):
        word = re.compile(rf"\b{re.escape(attr)}\b")
        own_lines = re.compile(rf'(def|class) {attr}\b|{attr}\b\s*[:=]|\s*"{attr}",$')
        if not any(
            word.search(line) and not (path == own and own_lines.match(line))
            for path, text in lines.items()
            for line in text
        ):
            unused.append(attr)
    assert not unused, f"{name}.__all__ lists names nothing else uses: {unused}"


def test_package_root_loads_no_numpy():
    # The root holds only __version__; every other name is imported from
    # its module, so importing the package alone stays cheap.
    src = str(Path(bayescv.__file__).resolve().parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import bayescv; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
