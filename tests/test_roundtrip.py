"""Planted round trips through ``symsolve.solve``.

Each case instantiates a table entry at parameters drawn by its
``sample_assignment`` from a fixed seed, twists the base operator by a
term ratio r, and disguises it by a gauge G.  ``symsolve.solve``, which
owns the stage order, must find a transform, and the test re-checks its
certificate exactly in Q(x)[S].  Any table entry is accepted:
Legendre and Gauss inputs may come back through an equivalent entry.
Every hom_space on the way must size its ansatz by the proven degree
bound, never by the heuristic cap kept for operands without a complete
exponent set.
"""

import random
from fractions import Fraction as F

import pytest

from symsolve import equivalence, solve, table as tablemod
from symsolve.equivalence import transformed_operator
from symsolve.opformat import parse_operator
from symsolve.ratfunc import RF
from symsolve.symprod import symprod_first_order

# (entry, sampler seed, term ratio, gauge); ratios and gauges come from
# the sets {1, 2, -1/2, x, 1/x, x^2+1, (x+1)/(x+2), 3x/(x^2+1)} and
# {none, 1+S, 2+S, 1+x*S, 1+S^2, x+S, (x+1)+x*S^2}
CASES = [
    ("legendre_sq", 664, RF(1), "1 + S"),
    ("legendre_sq", 13, RF([0, 1]), "1 + x*S"),
    ("legendre_sq", 983, RF(F(-1, 2)), "(x+1) + x*S^2"),
    ("hermite_sq", 186, RF([1, 1], [2, 1]), "1 + S"),
    ("hermite_sq", 363, RF([1], [0, 1]), "1 + x*S"),
    ("hermite_sq", 189, RF([0, 3], [1, 0, 1]), "1 + x*S"),
    ("besseli_sq", 374, RF([1, 1], [2, 1]), "1 + S^2"),
    ("gauss2f1_sq", 463, RF(1), "x + S"),
    ("gauss2f1_sq", 610, RF([1, 0, 1]), None),
    # a = 0, z = 1/3: b = 2/7, c = 11/14 and b = 1/6, c = 2/3
    ("gauss2f1_sq", 3808, RF(2), "x + S"),
    ("gauss2f1_sq", 791, RF(2), "1 + x*S"),
]


@pytest.fixture(scope="module")
def table():
    return tablemod.load_table()


@pytest.mark.parametrize("name, seed, r, gauge", CASES, ids=[
    f"{n}-{s}-r={r.to_str()}-G={g}" for n, s, r, g in CASES])
def test_planted_disguise_is_found_with_a_certificate(table, monkeypatch, name, seed,
                                                     r, gauge):
    fallback, homs = [], []
    for attr, log in (("_fallback_cap", fallback), ("hom_space", homs)):
        real = getattr(equivalence, attr)
        monkeypatch.setattr(equivalence, attr,
                            lambda *args, real=real, log=log: log.append(args) or real(*args))
    entry = table.entry(name)
    M, _ = entry.instantiate(entry.sample_assignment(random.Random(seed)))
    L = symprod_first_order(M, r)
    if gauge is not None:
        L = transformed_operator(L, parse_operator(gauge))
    res = solve(L, table)
    t = res.transform
    assert t is not None, "planted operator not found"
    assert homs and not fallback, "hom_space took the heuristic cap"
    assert t.target == L
    assert not (t.target * t.G.G) % t.G.source
    assert t.G.bijective
    base, _ = res.entry.instantiate(res.assignment)
    assert t.source == base
    assert t.G.source.canonical() == symprod_first_order(base, t.r)
