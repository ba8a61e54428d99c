"""The package surface: every exported name exists, and loading the table
stays clear of sympy."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import symsolve

MODULES = sorted(m.name for m in pkgutil.iter_modules(symsolve.__path__))


@pytest.mark.parametrize("module", ["__init__"] + MODULES)
def test_all_names_exist(module):
    name = "symsolve" if module == "__init__" else f"symsolve.{module}"
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_load_table_does_not_import_sympy():
    # sympy is imported on first factorization, not at package load
    src = str(Path(symsolve.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, symsolve; from symsolve.table import load_table; "
            "load_table(); print('sympy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "False"
