"""The package surface: every exported name exists, every name the
benchmark's tracer wraps exists, every function has a caller outside
the tests, and loading the table stays clear of sympy."""

import ast
import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys
from collections import Counter
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


ROOT = Path(__file__).resolve().parent.parent

#: functions that nothing in src/ or benchmarks/ calls by name, and why
#: each stays; one that gains a caller leaves this list
KEPT_WITHOUT_CALLER = {
    "equivalence.GaugeMap.to_json": "tests/golden_answers.py writes answers.json",
    "equivalence.GTTransform.to_json": "tests/golden_answers.py writes answers.json",
    "localdata.LocalData.to_json": "tests/golden_answers.py writes answers.json",
    "opformat.parse_operator": "reads operator text: the package's input, in README",
    "ore.Operator.apply_window": "D17: the certificate's numeric check",
    "ore.solution_window": "D9: the checked prefix of a positivity certificate",
    "snf.shift_quotient_inverse": "D1: prints r as a term u",
    "symprod.symprod_general": "wrapped by benchmarks/tracing.py; goes with D12",
    "table.BaseTable.self_validate": "checks a table file, such as SYMSOLVE_TABLE",
}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _defs(node, prefix):
    """(qualified name, node) of every function and method under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            name = f"{prefix}.{child.name}"
            if not isinstance(child, ast.ClassDef):
                yield name, child
            yield from _defs(child, name)
        else:
            yield from _defs(child, prefix)


def test_every_function_has_a_caller():
    # a reference by bare name anywhere in src/ or benchmarks/, outside
    # the function's own def, counts as a caller, so a test-only method
    # that shares its name with any other name or attribute (eval,
    # shift, lead) passes unseen: the test finds a lower bound of the
    # code only the tests reach, which is deleted or kept above
    trees = {path: ast.parse(path.read_text())
             for path in sorted((ROOT / "src" / "symsolve").glob("*.py"))
             + sorted((ROOT / "benchmarks").glob("*.py"))}
    refs = Counter(n for tree in trees.values() for n in _names(tree))
    uncalled = set()
    for path, tree in trees.items():
        if path.parent.name != "symsolve":
            continue
        for name, node in _defs(tree, path.stem):
            own = sum(1 for n in _names(node) if n == node.name)
            dunder = node.name.startswith("__") and node.name.endswith("__")
            if not dunder and refs[node.name] == own:
                uncalled.add(name)
    assert uncalled - set(KEPT_WITHOUT_CALLER) == set(), "only the tests call these"
    assert set(KEPT_WITHOUT_CALLER) - uncalled == set(), "these have a caller now"
