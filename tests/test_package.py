"""Every exported name resolves, every package re-export is its home module's object,
and importing the package and its CLI loads no numpy, ``dataclasses`` or ``inspect``."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import singlet_fusion

MODULES = sorted(
    m.name for m in pkgutil.iter_modules(singlet_fusion.__path__) if m.name != "__main__"
)


@pytest.mark.parametrize("module", MODULES)
def test_module_all_resolves(module):
    mod = importlib.import_module(f"singlet_fusion.{module}")
    names = mod.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(mod, n)] == []


def test_package_all_reexports_home_objects():
    names = singlet_fusion.__all__
    assert len(names) == len(set(names))
    for name in names:
        obj = getattr(singlet_fusion, name)
        if name == "__version__":
            continue
        home = importlib.import_module(obj.__module__)
        assert home.__name__.startswith("singlet_fusion."), name
        assert getattr(home, name) is obj, name
        assert name in home.__all__, name


def _fresh_interpreter(code):
    """The stripped stdout of ``code`` run in a new interpreter that imports this checkout."""
    src = str(Path(singlet_fusion.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    return out.stdout.strip()


def test_import_leaves_numpy_out():
    # the runtime depends on the standard library alone
    code = "import sys, singlet_fusion, singlet_fusion.cli; print('numpy' in sys.modules)"
    assert _fresh_interpreter(code) == "False"


def test_import_leaves_dataclasses_and_inspect_out():
    # start-up cost: ``dataclasses`` alone pulls in ``inspect``, ``ast``, ``dis``,
    # ``tokenize`` and more, and each of them is compiled or loaded per process
    code = (
        "import sys; bare = set(sys.modules); import singlet_fusion, singlet_fusion.cli; "
        "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - bare)))"
    )
    assert _fresh_interpreter(code) == "[]"


def test_each_fusion_engine_has_one_product_entry_point():
    from singlet_fusion import fusion_closed, fusion_oracle

    assert fusion_closed.__all__ == ["fuse"]
    assert fusion_oracle.__all__ == ["NegativeMultiplicityError", "oracle_fuse"]
