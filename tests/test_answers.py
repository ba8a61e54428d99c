"""Every golden answer in tests/data/answers.json still comes back.

Each input is re-solved by ``symsolve.solve``, which owns the stage
order, and its record compared field by field: case, entry, assignment,
printed r and G, escaped exception type, and the LocalData hash.  A
change that moves an answer on purpose regenerates the file with
``tests/golden_answers.py`` and lists each changed record.

``benchmarks/pipeline.py`` keeps its own copy of the stage order, timed
per stage; it must give the same answer on every input.
"""

import json

import pytest

from golden_answers import ANSWERS, answer
from test_api import benchmark_module
from symsolve import solve, table as tablemod
from symsolve.opformat import parse_operator, print_operator
from symsolve.ore import Operator

with open(ANSWERS) as fh:
    RECORDS = json.load(fh)


@pytest.fixture(scope="module")
def table():
    return tablemod.load_table()


def test_file_covers_the_inputs():
    assert len(RECORDS) == 129
    assert len({rec["input"] for rec in RECORDS}) == len(RECORDS)
    assert sum(rec["entry"] is not None for rec in RECORDS) == 27


@pytest.mark.parametrize("rec", RECORDS, ids=[f"{i:03d}" for i in range(len(RECORDS))])
def test_answer_is_unchanged(table, rec):
    assert answer(rec["input"], table) == rec


def test_found_answers_need_no_operator_division(table, monkeypatch):
    # gt_find certifies each gauge map on integer polynomials, so the
    # Q(x) division of Operator is never reached
    def refuse(*args, **kwargs):
        raise AssertionError("Operator.right_divmod called")

    monkeypatch.setattr(Operator, "right_divmod", refuse)
    for rec in RECORDS:
        if rec["entry"] is not None:
            assert answer(rec["input"], table) == rec


def _printed(t):
    return None if t is None else (t.r.to_str(), print_operator(t.G.G))


def test_benchmark_pipeline_gives_the_same_answers(table):
    pipeline = benchmark_module("pipeline")
    for rec in RECORDS:
        got = pipeline.solve(parse_operator(rec["input"]), table, pipeline.StageLog())
        res = solve(parse_operator(rec["input"]), table)
        assert ((got.entry, got.assignment, _printed(got.transform))
                == (getattr(res.entry, "name", None), res.assignment,
                    _printed(res.transform))), rec["input"]
