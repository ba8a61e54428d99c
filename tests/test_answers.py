"""Every golden answer in tests/data/answers.json still comes back.

Each input is re-solved by ``symsolve.solve``, which owns the stage
order, and its record compared field by field: case, entry, assignment,
printed r and G, escaped exception type, and the LocalData hash.  A
change that moves an answer on purpose regenerates the file with
``tests/golden_answers.py`` and lists each changed record.

``benchmarks/pipeline.py`` keeps its own copy of the stage order, timed
per stage; it must give the same answer on every input.
"""

import copy
import json

import pytest

from golden_answers import ANSWERS, answer
from test_api import benchmark_module
from symsolve import equivalence, localdata, snf, solve, table as tablemod
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


def test_answers_take_no_fallback_cap(table, monkeypatch):
    # every hom_space of a solve has complete exponent sets on both sides,
    # so its width comes from the proven degree bound
    def refuse(*args):
        raise AssertionError("_fallback_cap called")

    monkeypatch.setattr(equivalence, "_fallback_cap", refuse)
    for rec in RECORDS:
        assert answer(rec["input"], table) == rec


def test_kept_integer_forms_are_not_changed(table, monkeypatch):
    # the lists Operator.int_coeffs keeps are shared by every reader
    real, seen = Operator.int_coeffs, []

    def recording(self):
        got = real(self)
        seen.append((got, copy.deepcopy(got)))
        return got

    monkeypatch.setattr(Operator, "int_coeffs", recording)
    rec = min((r for r in RECORDS if r["G"] is not None and "S" in r["G"]),
              key=lambda r: len(r["input"]))
    L = parse_operator(rec["input"])
    res = solve(L, table)  # case_diagnosis, local_data, the match, gt_find
    t = res.transform
    assert (res.entry.name, _printed(t)) == (rec["entry"], (rec["r"], rec["G"]))
    res.local_data.to_json()
    t.to_json()
    t.G.to_json()
    assert equivalence.hom_space(t.G.source, L)
    assert len(seen) > 10
    assert all(got == kept for got, kept in seen)


def test_answers_read_no_class_of_degree_2(table, monkeypatch):
    # the matcher reads ValG at the classes of degree 1 only; every record
    # but the LocalData hash, which to_json takes from the full ValG
    real = localdata.valuation_growth

    def rational_only(L, cls, offsets=None):
        if cls.degree >= 2:
            raise AssertionError(f"valuation_growth at {cls.to_str()}")
        return real(L, cls, offsets)

    monkeypatch.setattr(localdata, "valuation_growth", rational_only)
    for rec in RECORDS:
        res = solve(parse_operator(rec["input"]), table)
        t = res.transform
        got = (res.case, getattr(res.entry, "name", None),
               None if res.assignment is None
               else {k: str(v) for k, v in sorted(res.assignment.items())},
               *(_printed(t) or (None, None)))
        assert got == (rec["case"], rec["entry"], rec["assignment"],
                       rec["r"], rec["G"]), rec["input"]


def test_gt_find_factors_only_term_ratios(table, monkeypatch):
    # A base operator and its twists keep the shift classes of their ends,
    # composed from those of K and of r, and the input's were factored by
    # problem_points; so inside gt_find the shift-class reader factors
    # only numerators and denominators of degree >= 2 of the term ratios
    # tried.  (The exponents at infinity factor their edge polynomials
    # through factorization.roots, which is no shift structure.)
    real_factor, real_gt_find = snf.factor_over_Q, equivalence.gt_find
    real_twist = equivalence.symprod_first_order
    factored, ratios, inside = [], [], []

    def recording(p):
        if inside:
            factored.append(p)
        return real_factor(p)

    def twisting(L, r):
        ratios.append(r)
        return real_twist(L, r)

    def marked(L1, L2):
        inside.append(True)
        try:
            return real_gt_find(L1, L2)
        finally:
            inside.pop()

    monkeypatch.setattr(snf, "factor_over_Q", recording)
    monkeypatch.setattr(equivalence, "symprod_first_order", twisting)
    monkeypatch.setattr(equivalence, "gt_find", marked)
    for rec in RECORDS:
        solve(parse_operator(rec["input"]), table)
    allowed = {q for r in ratios for q in (r.num, r.den) if q.degree >= 2}
    assert ratios
    assert all(p in allowed for p in factored), factored


def test_gt_find_factors_nothing(table, monkeypatch):
    # term_candidates hands each ratio's shift classes to the twist, so
    # no golden input factors anything inside gt_find
    real_factor, real_gt_find = snf.factor_over_Q, equivalence.gt_find
    factored, inside, calls = [], [], []

    def recording(p):
        if inside:
            factored.append(p)
        return real_factor(p)

    def marked(L1, L2):
        inside.append(True)
        calls.append(1)
        try:
            return real_gt_find(L1, L2)
        finally:
            inside.pop()

    monkeypatch.setattr(snf, "factor_over_Q", recording)
    monkeypatch.setattr(equivalence, "gt_find", marked)
    for rec in RECORDS:
        solve(parse_operator(rec["input"]), table)
    assert calls and not factored, factored


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
