import json
import random
import warnings
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import table_reference
from golden_answers import ANSWERS
from interlace_reference import interlaced_gate
from test_api import benchmark_module
from test_equivalence import GAUGE_TEXT
from test_localdata import SWEEP_GAUGES, SWEEP_RATIOS
from symsolve import localdata, solve, table as table_module
from symsolve.localdata import LocalData, local_data
from symsolve.opformat import parse_operator
from symsolve.ore import Operator
from symsolve.poly import P, Poly
from symsolve.ratfunc import RF
from symsolve.symprod import symprod_first_order, symsquare_order2
from symsolve.equivalence import gt_find, transformed_operator
from symsolve.table import (TableError, TableValidationError, default_table_path,
                            load_table, match_local_data, solve_parameters)

X = P(0, 1)


def hermite_sq(z=F(1)) -> Operator:
    K = Operator([P(2, 2), Poly.const(-2 * z), P(1)])
    return symsquare_order2(K).canonical()


def legendre_sq(z=F(3, 5)) -> Operator:
    K = Operator([P(1, 1), -(P(3, 2)) * z, P(2, 1)])
    return symsquare_order2(K).canonical()


def bessel_sq(z=F(2)) -> Operator:
    K = Operator([Poly.const(-z), P(2, 2), Poly.const(z)])
    return symsquare_order2(K).canonical()


def turan_op(z=F(1)) -> Operator:
    z2 = z * z
    a3 = P(1)
    a2 = P(2, 2) - Poly.const(4 * z2)
    a1 = (P(2, 1) * (X + Poly.const(4 - 2 * z2))) * F(-4)
    a0 = (X + P(1)) * P(2, 1) * P(2, 1) * F(-8)
    return Operator([a0, a1, a2, a3])


@pytest.fixture(scope="module")
def table():
    return load_table()


def gauss_entry(table):
    return table.entry("gauss2f1_sq")


def strs(vals):
    return [str(v) for v in vals]


# -- loading and schema ---------------------------------------------------


def test_ships_four_entries(table):
    assert [e.name for e in table] == [
        "gauss2f1_sq", "legendre_sq", "hermite_sq", "besseli_sq"]


def test_env_var_selects_table(monkeypatch, tmp_path, table):
    alt = tmp_path / "alt.json"
    alt.write_text(Path(default_table_path()).read_text())
    monkeypatch.setenv("SYMSOLVE_TABLE", str(alt))
    t2 = load_table()
    assert t2.path == str(alt)
    assert [e.name for e in t2] == [e.name for e in table]


def test_missing_file_and_bad_json(tmp_path):
    with pytest.raises(TableError, match="not found"):
        load_table(str(tmp_path / "nope.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    with pytest.raises(TableError, match="invalid JSON"):
        load_table(str(bad))
    empty = tmp_path / "empty.json"
    empty.write_text("{\"entries\": []}")
    with pytest.raises(TableError, match="no entries"):
        load_table(str(empty))


def test_schema_error_names_entry_and_field(tmp_path):
    raw = json.loads(Path(default_table_path()).read_text())
    del raw["entries"][1]["valg"]
    f = tmp_path / "t.json"
    f.write_text(json.dumps(raw))
    with pytest.raises(TableError, match="'legendre_sq'.*'valg'"):
        load_table(str(f))

    raw = json.loads(Path(default_table_path()).read_text())
    raw["entries"][2]["solution"]["evaluator"] = "nope"
    f.write_text(json.dumps(raw))
    with pytest.raises(TableError, match="'hermite_sq'.*unknown evaluator"):
        load_table(str(f))

    # malformed values are TableErrors too, not raw int()/iteration errors
    for path, value, pattern in [
        (("gquo", 0, "r"), "two", "'gquo'"),
        (("valg", 0, "gap"), "x", "'valg'"),
        # JSON integers only: no truncated floats, booleans or strings
        (("gquo", 0, "r"), 1.5, "'gquo'"),
        (("gquo", 0, "r"), True, "'gquo'"),
        (("valg", 0, "gap"), 2.7, "'valg'"),
        (("valg", 0, "gap"), True, "'valg'"),
        (("valg", 0, "gap"), "2", "'valg'"),
        # a valuation is a JSON integer or a string Fraction parses
        (("gquo", 0, "v"), True, "'gquo'"),
        (("gquo", 0, "v"), 0.5, "'gquo'"),
        (("gquo", 0, "v"), 1e-300, "'gquo'"),
        (("gquo",), 3, "'gquo'"),
        # generalized exponents are unramified or ramified of index 2
        (("gquo", 0), {"r": 0, "v": "0", "c": "1", "tail": []}, "'gquo'"),
        (("gquo", 0), {"r": 3, "v": "0", "c": "1", "tail": ["0", "0", "0"]},
         "'gquo'"),
        (("valg",), 5, "'valg'"),
        (("root", "a0"), "2*x+", "'root'.*malformed"),
        (("root", "a1"), "(x", "'root'.*malformed"),
        (("root", "a2"), "x+y", r"'root'.*unknown symbols \['y'\]"),
        (("root", "sqrt"), "1-x", r"'root'.*unknown symbols \['x'\]"),
        (("root", "a0"), "sqrt(x)", r"'root'.*unknown symbols \['sqrt'\]"),
        (("root", "a0"), 2, "'root'.*must be a string"),
        (("valg", 0, "point"), "2*a+", "'valg'.*malformed"),
        (("gquo", 0, "c"), "z+w", r"'gquo'.*unknown symbols \['w'\]"),
    ]:
        raw = json.loads(Path(default_table_path()).read_text())
        target = raw["entries"][0]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        f.write_text(json.dumps(raw))
        with pytest.raises(TableError, match="'gauss2f1_sq'.*" + pattern):
            load_table(str(f))

    raw = json.loads(Path(default_table_path()).read_text())
    raw["entries"][1] = ["legendre_sq"]
    f.write_text(json.dumps(raw))
    with pytest.raises(TableError, match="entry #1 is not an object"):
        load_table(str(f))


def test_unknown_keys_are_ignored(tmp_path, table):
    raw = json.loads(Path(default_table_path()).read_text())
    for e in raw["entries"]:
        e["operator"] = ["1", "2", "3", "4"]
    f = tmp_path / "t.json"
    f.write_text(json.dumps(raw))
    t = load_table(str(f))
    assert (t.entry("hermite_sq").instantiate({"z": F(1)})
            == table.entry("hermite_sq").instantiate({"z": F(1)}))


def test_template_tampering_is_caught(tmp_path):
    # a wrong root still loads and instantiates; self-validation rejects it
    f = tmp_path / "t.json"
    for key, text in [("a1", "-3*z"), ("a0", "2*x+3")]:
        raw = json.loads(Path(default_table_path()).read_text())
        raw["entries"][2]["root"][key] = text
        f.write_text(json.dumps(raw))
        entry = load_table(str(f)).entry("hermite_sq")
        entry.instantiate({"z": F(1)})
        with pytest.raises(TableValidationError):
            entry.self_validate({"z": F(1)})


# -- instantiation --------------------------------------------------------


def test_instantiate_builds_the_square(table):
    M, desc = table.entry("hermite_sq").instantiate({"z": F(1)})
    assert M == hermite_sq(F(1))
    assert desc.evaluator == "H"
    M, _ = table.entry("legendre_sq").instantiate({"z": F(3, 5)})
    assert M == legendre_sq(F(3, 5))
    M, _ = table.entry("besseli_sq").instantiate({"z": F(2)})
    assert M == bessel_sq(F(2))


def test_instantiate_parses_no_template(table, monkeypatch):
    # the root templates are parsed once, at load; instantiate evaluates
    # the kept trees and gives the same operator as the template text
    from symsolve import opformat
    e = gauss_entry(table)
    asn = {"a": F(0), "b": F(2, 3), "c": F(7, 6), "z": F(1, 4)}
    want = [opformat.eval_poly(e.root[k], asn) for k in ("a0", "a1", "a2")]

    def forbidden(text):
        raise AssertionError(f"template {text!r} parsed after load")

    monkeypatch.setattr(opformat, "_Parser", forbidden)
    a0, p, D, a2 = e.root_polys(asn)
    assert [a0, p, a2] == want and D == F(3, 4)
    assert e.instantiate(asn)[0].order == 3


def test_instantiate_rejects_degenerate_values(table):
    with pytest.raises(TableError, match="middle root coefficient vanishes"):
        table.entry("hermite_sq").instantiate({"z": F(0)})
    with pytest.raises(TableError, match="missing parameters"):
        gauss_entry(table).instantiate({"a": F(0), "z": F(1, 4)})


def test_descriptor_evaluates(table):
    _, desc = table.entry("hermite_sq").instantiate({"z": F(1)})
    assert desc.eval(3, exact=True) == F(-4)
    _, desc = gauss_entry(table).instantiate(
        {"a": F(0), "b": F(2, 3), "c": F(7, 6), "z": F(1, 4)})
    assert desc.eval(2, exact=True) == F(9, 14)


# -- ValG templates and the merge law ---------------------------------------


def test_valg_merge_parity(table):
    e = gauss_entry(table)
    base = {"c": None, "z": F(1, 4)}

    def vg(a, b):
        asn = {"a": a, "b": b, "c": a + b + F(1, 2), "z": F(1, 4)}
        return {(v.cls, v.gap) for v in e.expected_valg(asn)}

    # separated classes: one dip each
    assert vg(F(0), F(1, 3)) == {(P(F(2, 3), 1), 2), (P(0, 1), 2)}
    # odd collision offset: gaps add
    assert vg(F(0), F(3, 2)) == {(P(0, 1), 4)}
    assert vg(F(1, 2), F(1)) == {(P(0, 1), 4)}
    # even collision offset: the class cancels
    assert vg(F(0), F(1)) == set()
    assert vg(F(1, 2), F(1, 2)) == set()


def test_valg_merge_matches_computation(table):
    e = gauss_entry(table)
    for a, b in [(F(0), F(3, 2)), (F(0), F(1)), (F(1, 2), F(1, 2))]:
        asn = {"a": a, "b": b, "c": a + b + F(1, 2), "z": F(1, 4)}
        M, _ = e.instantiate(asn)
        assert set(LocalData(M).essential_classes()) == e.expected_valg(asn)


# -- matching ---------------------------------------------------------------


def test_match_turan_and_hermite(table):
    d = local_data(turan_op(F(1)))
    assert [e.name for e in match_local_data(d, table)] == ["hermite_sq"]
    d2 = local_data(hermite_sq(F(2)))
    assert [e.name for e in match_local_data(d2, table)] == ["hermite_sq"]


def test_match_legendre_includes_gauss_shape(table):
    d = local_data(legendre_sq(F(3, 5)))
    assert [e.name for e in match_local_data(d, table)] == [
        "gauss2f1_sq", "legendre_sq"]


def test_match_bessel(table):
    d = local_data(bessel_sq(F(1, 3)))
    assert [e.name for e in match_local_data(d, table)] == ["besseli_sq"]


def test_no_match_for_foreign_operator(table):
    L = Operator([P(1), P(0, 1), P(1, 1), P(1)])  # no table shape
    assert match_local_data(local_data(L), table) == []


def test_valg_is_not_computed_without_a_gquo_shape(table, monkeypatch):
    # reject-workload inputs whose Gquo fits no entry: their ValG is never
    # read.  The first has slopes -1 and 0 and the second the one slope 0,
    # so only the second reaches the Gquo shape test
    texts = ["(x^2 + 2*x - 2)*S^3 + (x^2 - x - 3)*S^2 + (2*x^2 - 2*x + 3)*S + x + 1",
             "(2*x + 1)*S^3 - (3*x - 1)*S^2 - 2*S + x + 1"]

    def refuse(*args):
        raise AssertionError("valuation_growth called")

    monkeypatch.setattr(localdata, "valuation_growth", refuse)
    for text in texts:
        data = local_data(parse_operator(text))
        assert data.genexp_complete and data.rejection is None
        assert match_local_data(data, table) == []


def test_exponents_are_not_computed_without_a_slope_fit(table, monkeypatch):
    # reject-workload inputs.  Every template v is 0 (Gauss, Legendre,
    # Hermite) or ±2, ±4 (Bessel).  Slopes -1 and 0 differ by 1, which no
    # entry has; slopes -2 and 0 differ by 2, and Bessel's ±4 would need
    # a third slope
    cases = [("(x^2 + 2*x - 2)*S^3 + (x^2 - x - 3)*S^2 + (2*x^2 - 2*x + 3)*S + x + 1",
              [F(-1), F(0)]),
             ("(3*x^2 + 2*x - 2)*S^3 + S^2 + (x^2 - x + 3)*S + 1", [F(-2), F(0)])]

    def refuse(*args):
        raise AssertionError("generalized_exponents called")

    monkeypatch.setattr(localdata, "generalized_exponents", refuse)
    for text, slopes in cases:
        L = parse_operator(text)
        assert [s for s, _ in localdata.edges_at_infinity(L)] == slopes
        assert match_local_data(local_data(L), table) == []


def test_valg_is_computed_once(table, monkeypatch):
    # a gauge-workload disguise of the Gauss square: the shape test reads
    # no class, the parameter solver the classes of degree 1, to_json all
    # of them (one has degree 2), and no class is computed twice.  The
    # Legendre entry has Gauss's Gquo shape and no assignment
    calls = []
    real = localdata.valuation_growth

    def counting(L, cls, offsets=None):
        calls.append(cls)
        return real(L, cls, offsets)

    monkeypatch.setattr(localdata, "valuation_growth", counting)
    data = local_data(parse_operator(GAUGE_TEXT))
    assert calls == []
    entries = match_local_data(data, table)
    assert calls == []
    assert [e.name for e in entries] == ["gauss2f1_sq", "legendre_sq"]
    assert solve_parameters(entries[0], data)
    assert solve_parameters(entries[1], data) == []
    assert len(calls) == 3 and all(c.degree == 1 for c in calls)
    assert data.to_json()["valg"]
    assert len(calls) == len(set(calls)) == len(localdata.problem_points(data.operator))
    assert [c.degree for c in calls] == [1, 1, 1, 2]


SMALL_POLY = st.lists(st.integers(-3, 3), min_size=1, max_size=3).map(
    lambda cs: Poly([F(c) for c in cs]))


@st.composite
def match_inputs(draw):
    """(L, whether L is a planted disguise of a table base): random
    order-3 operators, squares of random order-2 operators, those
    squares twisted, and the sweep's disguises."""
    kind = draw(st.sampled_from(["random", "square", "twisted", "disguise"]))
    if kind == "disguise":
        entry = draw(st.sampled_from(load_table().entries))
        M, _ = entry.instantiate(
            entry.sample_assignment(random.Random(draw(st.integers(0, 999)))))
        L = symprod_first_order(M, draw(st.sampled_from(SWEEP_RATIOS)))
        gauge = draw(st.sampled_from(SWEEP_GAUGES))
        if gauge is not None:
            L = transformed_operator(L, parse_operator(gauge))
    elif kind == "random":
        L = Operator(draw(st.lists(SMALL_POLY, min_size=4, max_size=4)))
    else:
        K = Operator(draw(st.lists(SMALL_POLY, min_size=3, max_size=3)))
        assume(K.order == 2 and K.is_normal())
        L = symsquare_order2(K)
        if kind == "twisted":
            r = RF(draw(st.lists(st.integers(-3, 3), min_size=1, max_size=2)),
                   draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
            assume(r)
            L = symprod_first_order(L, r)
    assume(L.order == 3 and L.is_normal())
    return L, kind == "disguise"


@given(match_inputs())
@settings(max_examples=60, deadline=None)
def test_cheapest_invariant_first_keeps_the_matches(case):
    # the old rule reads every exponent before any entry and ValG at every
    # class; the matcher reads the slopes first, and solve_parameters
    # returns [] for an entry with no parameter assignment, which gives no
    # gt_find call, before it reads ValG, at degree 1 only.  So the entries
    # with assignments are those of the old rule that have some
    L, disguise = case
    table = load_table()
    full = local_data(Operator(L.coeffs))
    try:
        old = table_reference.match_local_data(full, table)
        essential = [e.cls.degree for e in full.valg]
    except ValueError:  # an escape of the exponents or of Gquo
        old, essential = None, []
    if disguise:
        # every essential class of a disguise of a table base is rational
        assert all(deg == 1 for deg in essential)
    if old is not None and any(deg >= 2 for deg in essential):
        # an input that is no disguise: ValG at degree 1 only
        old = table_reference.match_local_data(full, table, max_degree=1)
    try:
        data = local_data(L)
        new = [e for e in match_local_data(data, table)
               if solve_parameters(e, data)]
    except ValueError:
        assert old is None
        return
    if old is None:
        assert new == []  # the slope test skipped every entry
        return
    tried = [e for e in old if solve_parameters(e, full)]
    if full.genexp_complete:
        assert new == tried
    else:  # the slope test may skip more, never a true disguise
        assert set(e.name for e in new) <= set(e.name for e in old)
        assert not disguise or new == tried


# -- parameter matchers ------------------------------------------------------


def test_hermite_candidates(table):
    e = table.entry("hermite_sq")
    for z in (F(1), F(2)):
        cands = solve_parameters(e, local_data(turan_op(z)))
        # z and -z give one base operator, so only z > 0 comes back
        assert [m["z"] for m in cands] == [z]


def test_bessel_candidates(table):
    e = table.entry("besseli_sq")
    cands = solve_parameters(e, local_data(bessel_sq(F(2))))
    assert [m["z"] for m in cands] == [F(2)]


def test_legendre_candidates_include_spurious(table):
    e = table.entry("legendre_sq")
    cands = solve_parameters(e, local_data(legendre_sq(F(3, 5))))
    # reading the squared constant λ² as λ gives z² = (2·(3/5)²-1)²; only
    # 3/5 survives the later equivalence check
    assert [m["z"] for m in cands] == [F(7, 25), F(3, 5)]


def _values(assignments, name):
    """The distinct values one parameter takes over the assignments."""
    return sorted({m[name] for m in assignments})


def _triples(assignments):
    return [(m["a"], m["b"], m["c"], m["z"]) for m in assignments]


def test_gauss_candidates_small_parameter(table):
    e = gauss_entry(table)
    al = F(1, 3)
    asn = {"a": F(0), "b": al / 2 + F(1, 2), "c": al / 2 + 1, "z": F(1, 4)}
    M, _ = e.instantiate(asn)
    got = solve_parameters(e, local_data(M))
    # the locus keeps (0, 2/3, 7/6), (1/2, 1/6, 7/6) and (1/2, 2/3, 5/3);
    # the middle one is the first one's x-shift.  z = 3/4 comes from
    # reading R² as -R and fails the later equivalence check
    assert _triples(got) == [
        (F(0), F(2, 3), F(7, 6), F(1, 4)), (F(1, 2), F(2, 3), F(5, 3), F(1, 4)),
        (F(0), F(2, 3), F(7, 6), F(3, 4)), (F(1, 2), F(2, 3), F(5, 3), F(3, 4)),
    ]


def test_gauss_candidates_merged_class(table):
    e = gauss_entry(table)
    asn = {"a": F(0), "b": F(3, 2), "c": F(2), "z": F(1, 4)}
    M, _ = e.instantiate(asn)
    got = solve_parameters(e, local_data(M))
    assert _triples(got) == [
        (F(0), F(1, 2), F(1), F(1, 4)), (F(1, 2), F(1, 2), F(3, 2), F(1, 4)),
        (F(0), F(1, 2), F(1), F(3, 4)), (F(1, 2), F(1, 2), F(3, 2), F(3, 4)),
    ]


def test_gauss_constant_collision_still_recovers_z(table):
    # at z = 1/2 the two squared constants coincide and ValG cancels, yet
    # the ratio reading still pins z
    e = gauss_entry(table)
    M, _ = e.instantiate({"a": F(1, 2), "b": F(1, 2), "c": F(3, 2), "z": F(1, 2)})
    d = local_data(M)
    assert len(d.gquo) == 3 and not d.valg
    assert [x.name for x in match_local_data(d, table)] == [
        "gauss2f1_sq", "legendre_sq"]
    assert solve_parameters(table.entry("legendre_sq"), d) == []
    got = solve_parameters(e, d)
    assert _values(got, "z") == [F(1, 2)]
    assert {"a": F(1, 2), "b": F(1, 2), "c": F(3, 2), "z": F(1, 2)} in got


def test_undisguised_gauss_solves_without_warnings(table):
    # g.c without a square root in its field holds no rational z, so the
    # branch is skipped silently and another branch finds the operator
    e = gauss_entry(table)
    M, _ = e.instantiate({"a": F(0), "b": F(1, 3), "c": F(5, 6), "z": F(1, 4)})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        data = local_data(M)
        assert [x.name for x in match_local_data(data, table)] == [
            "gauss2f1_sq", "legendre_sq"]
        assert solve_parameters(table.entry("legendre_sq"), data) == []
        found = next(asn for asn in solve_parameters(e, data)
                     if gt_find(e.instantiate(asn)[0], M) is not None)
    assert found["z"] == F(1, 4)


# -- one assignment per base operator ----------------------------------------


@pytest.mark.parametrize("name", ["legendre_sq", "hermite_sq", "besseli_sq"])
@given(z=st.fractions(min_value=-12, max_value=12, max_denominator=12).filter(bool))
@settings(max_examples=20, deadline=None)
def test_z_and_minus_z_instantiate_one_base(table, name, z):
    e = table.entry(name)
    assert e.instantiate({"z": z})[0] == e.instantiate({"z": -z})[0]


@given(beta=st.fractions(min_value=0, max_value=F(1, 2), max_denominator=12),
       z=st.fractions(min_value=0, max_value=1, max_denominator=12))
@settings(max_examples=20, deadline=None)
def test_gauss_dropped_triple_is_an_x_shift(table, beta, z):
    # (1/2, β, β+1) has the root polynomials of (0, β+1/2, β+1) at x+1
    e = gauss_entry(table)
    a0, p, D, a2 = e.root_polys({"a": F(1, 2), "b": beta, "c": beta + 1, "z": z})
    assert (a0.shift(1), p.shift(1), D, a2.shift(1)) == e.root_polys(
        {"a": F(0), "b": beta + F(1, 2), "c": beta + 1, "z": z})


def _shifts(M: Operator) -> list:
    """M and its shifts x -> x+1 and x -> x-1."""
    return [M] + [Operator([c.shift(k) for c in M.poly_coeffs()]).canonical()
                  for k in (1, -1)]


def _golden_records():
    with open(ANSWERS) as fh:
        return json.load(fh)


def test_matchers_drop_only_repeated_or_futile_assignments(table):
    # over the golden inputs, every assignment is one the matchers of
    # tests/table_reference.py return, and every one of theirs left out
    # names a kept base operator or its x-shift, or fails gt_find.  An
    # entry with no assignment is no match, so the reference assignments
    # of the entries that the shape and the gaps alone let through are
    # checked on their own: 3 of them, all failing gt_find (105 dropped
    # in all when those entries were matched).  The entries that only
    # the shape lets through get no assignment from solve_parameters
    kept_total = dropped_total = skipped_total = 0
    for rec in _golden_records():
        if rec["case"] not in (5, 6) or rec["error"]:
            continue
        L = parse_operator(rec["input"])
        data = local_data(L)
        matched = [e for e in match_local_data(data, table)
                   if solve_parameters(e, data)]
        for e in matched:
            got = solve_parameters(e, data)
            ref = table_reference.solve_parameters(e, data)
            assert all(asn in ref for asn in got)
            kept = {S for asn in got for S in _shifts(e.instantiate(asn)[0])}
            for asn in ref:
                if asn in got:
                    continue
                M, _ = e.instantiate(asn)
                assert M in kept or gt_find(M, L) is None, (rec["input"], e.name, asn)
            kept_total += len(got)
            dropped_total += len(ref) - len(got)
        for e in _shape_then_gaps(data, table):
            if e not in matched:
                assert not solve_parameters(e, data)
                ref = table_reference.solve_parameters(e, data)
                assert all(gt_find(e.instantiate(asn)[0], L) is None for asn in ref)
                skipped_total += len(ref)
    assert (kept_total, dropped_total, skipped_total) == (68, 102, 3)


def _shape_then_gaps(data, table):
    """The entry matcher as it read ValG before any parameter: the slope
    and Gquo shape tests, then the gaps at the classes of degree 1, from
    the templates as the table file writes them."""
    diffs = table_module._slope_differences(data.operator)
    shaped = []
    for e in table:
        t_pairs = [(int(g["r"]), F(g["v"])) for g in e.gquo_templates]
        if diffs <= {v for _, v in t_pairs} <= diffs | {0}:
            shaped.append((e, t_pairs))
    if not shaped or len(data.genexp) == 0:
        return []
    obs_classes = table_module._quotient_classes(list(data.gquo))
    obs_shape = table_module._shape_of(obs_classes)
    out = []
    for e, t_pairs in shaped:
        if set(t_pairs) != obs_shape or len(obs_classes) > len(t_pairs):
            continue
        if table_module._gaps_compatible([int(v["gap"]) for v in e.valg_templates],
                                         [v.gap for v in data.rational_valg]):
            out.append(e)
    return out


def _tried(L, table, matcher):
    """The (entry, assignment) pairs a solve of L hands to gt_find, with
    the entries read by matcher, or the exception it meets."""
    data = local_data(Operator(L.coeffs))
    try:
        return [(e.name, asn) for e in matcher(data, table)
                for asn in solve_parameters(e, data)]
    except ValueError as exc:
        return type(exc).__name__


def test_parameters_before_valg_try_the_same_pairs(table):
    # reading the assignments before ValG only skips entries that have none:
    # on every golden input of cases 5 and 6 a solve tries the pairs it
    # tried when the gaps came first, in the same order
    tried = 0
    for rec in _golden_records():
        if rec["case"] not in (5, 6):
            continue
        L = parse_operator(rec["input"])
        old = _tried(L, table, _shape_then_gaps)
        assert _tried(L, table, match_local_data) == old, rec["input"]
        tried += len(old) if isinstance(old, list) else 0
    assert tried == 68


def test_seed_1_reject_corpus_reads_valg_once(table, monkeypatch):
    # of the reject inputs whose Gquo fits an entry's shape, one has an
    # assignment and reads ValG at one class; four have none and read none
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import corpus
    cases = corpus.build("reject", 1, table)
    calls = []
    real = localdata.valuation_growth

    def recording(L, cls, offsets=None):
        calls.append(cls)
        return real(L, cls, offsets)

    monkeypatch.setattr(localdata, "valuation_growth", recording)
    for case in cases:
        solve(case.L, table)
    assert len(calls) == 1


def test_each_matcher_runs_once_per_solve(table, monkeypatch):
    # match_local_data reads the slopes and the Gquo shape only, and
    # solve_parameters runs the entry's matcher: through symsolve.solve and
    # through the benchmark pipeline, no matcher runs twice on one input
    # of the seed-1 corpora, whose passes make 3 (gauge), 9 (reject) and
    # 3 (twist) matcher calls
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "benchmarks"))
    import corpus
    pipeline = benchmark_module("pipeline")
    calls = Counter()
    for kind, real in list(table_module._MATCHERS.items()):
        def counting(entry, data, real=real):
            calls[entry.name] += 1
            return real(entry, data)
        monkeypatch.setitem(table_module._MATCHERS, kind, counting)
    solvers = {"symsolve.solve": lambda L: solve(L, table),
               "pipeline.solve": lambda L: pipeline.solve(L, table, pipeline.StageLog())}
    for workload, per_pass in (("gauge", 3), ("reject", 9), ("twist", 3)):
        cases = corpus.build(workload, 1, table)
        for name, run in solvers.items():
            total = 0
            for i, case in enumerate(cases):
                calls.clear()
                run(case.L)
                assert max(calls.values(), default=0) <= 1, (workload, name, i, calls)
                total += sum(calls.values())
            assert total == per_pass, (workload, name, total)


# -- self-validation and the interlaced gate ---------------------------------


def test_self_validation_passes(table):
    table.self_validate(seed=7, samples=2)


def test_self_validation_catches_wrong_templates(tmp_path, table):
    raw = json.loads(Path(default_table_path()).read_text())
    for entry in raw["entries"]:
        if entry["name"] == "hermite_sq":
            entry["valg"] = [{"point": "0", "gap": 3}]
    f = tmp_path / "t.json"
    f.write_text(json.dumps(raw))
    t = load_table(str(f))
    with pytest.raises(TableValidationError, match="ValG mismatch"):
        t.entry("hermite_sq").self_validate({"z": F(1)})


def test_interlaced_gate():
    assert interlaced_gate({"a": F(0), "b": F(1, 2), "c": F(1), "z": F(1, 4)})


def test_interlaced_gate_on_a_sampled_assignment(table):
    rng = random.Random(7)
    assert interlaced_gate(table.entry("gauss2f1_sq").sample_assignment(rng))
