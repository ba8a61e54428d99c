"""Seeded operator corpora for the solve benchmark.

Every workload is a fixed list of cases whose sizes are set here, up
front.  The seed draws only values that keep the amount of work about
the same from seed to seed (a constant factor in the term ratio, the
lower coefficients of random order-3 operators) and the order of the
cases, so runs with different seeds stay comparable.  Disguises are
built here, before any timing and with no tracing installed; the solver
sees only ``Case.L``.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Dict, List, Optional, Tuple

from symsolve.equivalence import transformed_operator
from symsolve.opformat import print_operator
from symsolve.ore import Operator
from symsolve.poly import P
from symsolve.ratfunc import RF, RatFunc
from symsolve.symprod import symprod_first_order, symsquare_order2
from symsolve.table import BaseTable

GAUSS = {"a": F(0), "b": F(1, 3), "c": F(5, 6), "z": F(1, 4)}
FAMILY_PARAMS: Dict[str, Dict[str, F]] = {
    "besseli_sq": {"z": F(2)},
    "hermite_sq": {"z": F(1)},
    "legendre_sq": {"z": F(3, 5)},
    "gauss2f1_sq": GAUSS,
}

X, INV_X, X2_1 = RF([0, 1]), RF([1], [0, 1]), RF([1, 0, 1])
ONE_S, TWO_S = Operator([P(1), P(1)]), Operator([P(2), P(1)])

# A pass takes 10-15 s on 2 cores, so a run of two passes stays near
# half a minute.  Each ratio of {x, 1/x, x^2+1} appears once.  The
# Legendre input also matches the Gauss entry and resolves there after
# 7 assignments, so the Gauss entry is exercised without a planted
# Gauss case; Gauss is planted in the gauge workload instead.
TWIST = (("besseli_sq", X2_1), ("hermite_sq", INV_X), ("legendre_sq", X))
GAUGE = (("hermite_sq", ONE_S), ("besseli_sq", TWO_S), ("gauss2f1_sq", ONE_S))
#: constant factors of the term ratio drawn per case from the seed
RATIO_SCALES = (F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3))
#: leading coefficients of random operators
LEADING = (-3, -2, -1, 1, 2, 3)
#: warm-up input, outside every corpus: lazy set-up is paid before timing
WARMUP = ("hermite_sq", {"z": F(3)}, X)


@dataclass(frozen=True)
class Case:
    L: Operator
    family: Optional[str]                 # planted table entry
    params: Tuple[Tuple[str, F], ...]     # planted parameter assignment
    r: Optional[RatFunc]                  # planted term ratio
    G: Optional[Operator]                 # planted gauge
    kind: str                             # how the operator was made

    @property
    def expect_found(self) -> bool:
        return self.family is not None

    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "family": self.family,
            "params": {k: str(v) for k, v in self.params},
            "r": self.r.to_str() if self.r is not None else None,
            "G": print_operator(self.G) if self.G is not None else None,
            "degrees": [p.degree for p in self.L.poly_coeffs()],
            "expected": "found" if self.expect_found else "not found",
        }


def _planted(table: BaseTable, family: str, params, r: RatFunc,
             G: Optional[Operator], kind: str) -> Case:
    M, _ = table.entry(family).instantiate(params)
    L = symprod_first_order(M, r)
    if G is not None:
        L = transformed_operator(L, G)
    return Case(L, family, tuple(sorted(params.items())), r, G, kind)


def _shapes(rng: random.Random, order: int, max_degree: int,
            count: Optional[int] = None) -> List[Tuple[Tuple[int, F], ...]]:
    """(degree, leading coefficient) of each coefficient, for ``count``
    distinct degree patterns (all of them when ``count`` is None)."""
    patterns = list(itertools.product(range(max_degree + 1), repeat=order + 1))
    if count is not None:
        patterns = rng.sample(patterns, count)
    return [tuple((d, F(rng.choice(LEADING))) for d in pat) for pat in patterns]


def _random_operator(rng: random.Random, shape) -> Operator:
    """An operator of the given shape with lower coefficients from rng;
    a_0 has a leading coefficient, so the operator is normal."""
    return Operator([P(*[F(rng.randint(-3, 3)) for _ in range(deg)], lead)
                     for deg, lead in shape]).canonical()


#: reject inputs, drawn here once and independent of the seed: the shapes
#: (coefficient degrees and leading coefficients, which fix the Newton
#: polygon at infinity) of 24 order-3 operators, one for each of 24
#: distinct degree patterns out of the 81 with degrees <= 2, and 8 whole
#: order-2 operators, one for each degree pattern with degrees <= 1, whose
#: symmetric squares are the inputs.  The seed draws the lower
#: coefficients of the order-3 operators.
_SHAPE_RNG = random.Random("reject-shapes")
ORDER3_SHAPES = _shapes(_SHAPE_RNG, 3, 2, 24)
SQUARES = [symsquare_order2(_random_operator(_SHAPE_RNG, shape))
           for shape in _shapes(_SHAPE_RNG, 2, 1)]


def warmup_case(table: BaseTable) -> Case:
    family, params, r = WARMUP
    return _planted(table, family, params, r, None, "warmup")


def build(workload: str, seed: int, table: BaseTable) -> List[Case]:
    """The corpus of one workload; the same seed gives the same corpus."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "twist":
        cases = [_planted(table, fam, FAMILY_PARAMS[fam],
                          r * rng.choice(RATIO_SCALES), None, "twist")
                 for fam, r in TWIST]
    elif workload == "gauge":
        cases = [_planted(table, fam, FAMILY_PARAMS[fam], RF([1]), G, "gauge")
                 for fam, G in GAUGE]
    elif workload == "reject":
        cases = [Case(_random_operator(rng, shape), None, (), None, None,
                      "random_order3") for shape in ORDER3_SHAPES]
        cases += [Case(L, None, (), None, None, "random_square") for L in SQUARES]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(cases)
    return cases
