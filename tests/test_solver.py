"""The fields of ``symsolve.solve``'s result on one input of each kind:
outside the case split, a case-5 or case-6 input with no transform, and
a found disguise."""

import pytest

from symsolve import Result, solve, table as tablemod
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
