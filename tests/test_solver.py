"""The fields of ``symsolve.solve``'s result on one input of each kind:
outside the case split, a case-5 or case-6 input with no transform, and
a found disguise."""

import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy

from symsolve import Result, solve, table as tablemod
from symsolve.equivalence import GaugeMap
from symsolve.localdata import LocalData
from symsolve.opformat import parse_operator

# a golden input of the reject workload at seed 1 that passes the case split
REJECTED = "(x^2 + 2*x - 2)*S^3 + (x^2 - x - 3)*S^2 + (2*x^2 - 2*x + 3)*S + x + 1"
# the shortest found golden input: Hermite twisted by 1/(2x), no gauge
FOUND = ("(x^3 + 3*x^2 + 2*x)*S^3 + (x^3 + x^2)*S^2 - (x^3 + 2*x^2)*S"
         " - (x^3 + 4*x^2 + 5*x + 2)")


@pytest.fixture(scope="module")
def table():
    return tablemod.load_table()


def test_outside_the_case_split_only_the_case_is_set(table):
    assert solve(parse_operator("S^3 - 1"), table) == Result(3)


def test_no_transform_keeps_the_local_data(table):
    res = solve(parse_operator(REJECTED), table)
    assert res.case in (5, 6)
    assert isinstance(res.local_data, LocalData)
    assert (res.entry, res.assignment, res.transform) == (None, None, None)


def test_found_transform_starts_at_the_instantiated_entry(table):
    L = parse_operator(FOUND)
    res = solve(L, table)
    assert res.entry.name == "hermite_sq"
    assert res.entry.instantiate(res.assignment)[0] == res.transform.source
    assert res.transform.target == L


def test_legendre_with_28_digit_argument_factors_no_integer(table, monkeypatch):
    # the Legendre base at z = p/q, p and q the primes after 10^28 and
    # 3·10^28: its radicands at infinity have over 100 digits, which
    # sympy.factorint took minutes on
    p, q = 10 ** 28 + 331, 3 * 10 ** 28 + 1
    assert sympy.isprime(p) and sympy.isprime(q)
    assert all(not sympy.isprime(n) for n in range(10 ** 28, p))
    assert all(not sympy.isprime(n) for n in range(3 * 10 ** 28, q))

    def refuse(*args, **kwargs):
        raise AssertionError("factorint called")

    monkeypatch.setattr(sympy, "factorint", refuse)
    L, _ = table.entry("legendre_sq").instantiate({"z": Fraction(p, q)})
    start = time.perf_counter()
    res = solve(L, table)
    assert time.perf_counter() - start < 1.0
    assert res.entry.name in ("legendre_sq", "gauss2f1_sq")
    t = res.transform
    assert t.target == L and t.G.bijective
    GaugeMap(t.G.G, t.G.source, t.G.target)  # re-checks the remainder identity


ROOT = Path(__file__).resolve().parent.parent

SOLVE_WITHOUT_SYMPY = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
import corpus
from symsolve import solve
from symsolve.table import load_table
table = load_table()
for workload in ("gauge", "reject"):
    for case in corpus.build(workload, 1, table):
        solve(case.L, table)
mods = sorted({{"sympy", "mpmath", "numpy"}} & set(sys.modules))
sys.exit("imported while solving: %s" % mods if mods else 0)
"""


def test_a_solve_stays_clear_of_sympy():
    # the seed-1 gauge and reject corpora factor no cofactor of degree >= 4,
    # so a fresh interpreter that solves them never loads sympy
    code = SOLVE_WITHOUT_SYMPY.format(src=str(ROOT / "src"), bench=str(ROOT / "benchmarks"))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         timeout=300)
    assert out.returncode == 0, out.stderr
