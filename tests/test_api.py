"""The package surface: every exported name exists, every name the
benchmark's tracer wraps exists, and loading the table stays clear of
sympy."""

import importlib
import importlib.util
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
    # sympy is imported on first factorization and mpmath on the first
    # float evaluation, not at package load; numpy is not used at all
    src = str(Path(symsolve.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = ("import sys, symsolve; from symsolve.table import load_table; "
            "load_table(); print(sorted({'sympy', 'numpy', 'mpmath'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def benchmark_module(name):
    # benchmarks/ is no package, so its modules are loaded from their files;
    # a dataclass resolves its module's annotations through sys.modules
    path = Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_traced_names_exist():
    # a traced run installs a wrapper on each of these and fails on a
    # missing one, so a deletion from src/ must not leave one behind
    tracing = benchmark_module("tracing")
    missing = []
    for span, where in tracing.LAYERS + tracing.KERNELS:
        modname, attr = where.split(":")
        obj = importlib.import_module(modname)
        for part in attr.split("."):
            obj = getattr(obj, part, None)
        if obj is None:
            missing.append(span)
    assert not missing, f"benchmarks/tracing.py wraps missing names: {missing}"
