"""Exact linear algebra used by the product and equivalence machinery.

Both kernels work on integers or integer polynomials and never round:
DependencyFinder reports the first linear dependency among vectors over
F(x) (fraction-free rows, used for minimal-order annihilators), and
nullspace_rational returns the canonical nullspace basis of an integer
matrix (incremental elimination over Python integers, used for the
hom_space systems).  Each result is exact by construction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import List, Optional, Sequence, Tuple

from .poly import Poly, poly_gcd, rational_content
from .ratfunc import RatFunc

__all__ = ["DependencyFinder", "nullspace_rational"]


# -- exact dependency search over F(x) ------------------------------------


def _clear_row(vec: Sequence[RatFunc]) -> Tuple[List[Poly], Poly]:
    den = Poly.const(Fraction(1))
    for c in vec:
        if c:
            den = den * c.den.exact_div(poly_gcd(den, c.den))
    return [c.num * den.exact_div(c.den) if c else Poly() for c in vec], den


def _strip_row(main: List[Poly], aug: List[Poly]) -> None:
    entries = [p for p in main + aug if p]
    if not entries:
        return
    g = Poly()
    for p in entries:
        g = poly_gcd(g, p)
        if g.degree == 0:
            break
    rational = all(p.is_rational() for p in entries)
    if g.degree > 0:
        for row in (main, aug):
            for i, p in enumerate(row):
                if p:
                    row[i] = p.exact_div(g)
    if rational:
        c = rational_content(p.content() for p in main + aug)
        if c != 1:
            inv = 1 / c
            for row in (main, aug):
                for i, p in enumerate(row):
                    if p:
                        row[i] = p * inv


class DependencyFinder:
    """Feed vectors over F(x) one at a time; reports the first linear
    dependency as monic coefficients (last coefficient 1)."""

    def __init__(self, width: int):
        self.width = width
        self.count = 0
        self.dens: List[Poly] = []  # per-row denominator-clearing factors
        # rows: (pivot column, main part, multiplier part)
        self.rows: List[Tuple[int, List[Poly], List[Poly]]] = []

    def feed(self, vec: Sequence[RatFunc]) -> Optional[List[RatFunc]]:
        if len(vec) != self.width:
            raise ValueError("vector width mismatch")
        main, den = _clear_row(vec)
        self.dens.append(den)
        aug = [Poly()] * self.count + [Poly.const(Fraction(1))]
        self.count += 1
        for piv, bmain, baug in self.rows:
            if not main[piv]:
                continue
            f, g = bmain[piv], main[piv]
            main = [f * a - g * b for a, b in zip(main, bmain)]
            baug = baug + [Poly()] * (len(aug) - len(baug))
            aug = [f * a - g * b for a, b in zip(aug, baug)]
            _strip_row(main, aug)
        piv = next((i for i, p in enumerate(main) if p), None)
        if piv is None:
            # aug applies to the cleared rows; undo the clearing factors
            coeffs = [RatFunc(c * d) for c, d in zip(aug, self.dens)]
            lead = coeffs[-1]
            return [c / lead for c in coeffs]
        self.rows.append((piv, main, aug))
        self.rows.sort(key=lambda r: r[0])
        return None


# -- exact nullspaces of integer matrices -----------------------------------


def _eliminate(v: List[int], p: List[int], a: int, b: int) -> List[int]:
    """a·v - b·p divided by the gcd of its entries."""
    w = [a * x - b * y for x, y in zip(v, p)]
    g = math.gcd(*w)
    return [x // g for x in w] if g > 1 else w


def nullspace_rational(rows: Sequence[Sequence[int]]) -> List[List[Fraction]]:
    """Exact rational nullspace basis of an integer matrix (list of rows).

    A rational matrix is passed with each row's denominators cleared,
    which leaves its nullspace unchanged.  The basis is the canonical
    one: a vector per free column of the reduced row echelon form, with
    1 at that column and 0 at every other free column, in column order.

    The n unit vectors span the nullspace of no rows.  Each row r, read
    in ascending order of its largest entry's bit length, maps the
    spanning vectors v to d = r·v; if every d is 0 the row changes
    nothing, otherwise the first v0 with d0 != 0 is dropped and every
    other v becomes d0·v - d·v0, which keeps the vectors independent and
    spanning the nullspace of the rows read.  Every step is exact integer
    arithmetic, so the basis needs no re-check and the solver no cap; an
    empty list certifies a trivial nullspace.  A matrix with no rows has
    no known width, so it raises ValueError.
    """
    if not rows:
        raise ValueError("nullspace_rational needs at least one row")
    if not all(isinstance(c, int) for r in rows for c in r):
        raise TypeError("nullspace_rational takes integer rows")
    n = len(rows[0])
    vecs = [[int(i == j) for i in range(n)] for j in range(n)]
    for row in sorted(rows, key=lambda r: max(map(abs, r), default=0).bit_length()):
        ds = [sum(map(mul, row, v)) for v in vecs]
        k = next((k for k, d in enumerate(ds) if d), None)
        if k is None:
            continue
        v0, d0 = vecs[k], ds[k]
        vecs = [_eliminate(v, v0, d0, d) if d else v
                for j, (v, d) in enumerate(zip(vecs, ds)) if j != k]
        if not vecs:
            return []
    # right to left over the columns: the last nonzero entries of an
    # echelon basis of the nullspace are exactly the free columns
    basis: List[Tuple[int, List[int]]] = []
    for j in reversed(range(n)):
        k = next((k for k, v in enumerate(vecs) if v[j]), None)
        if k is None:
            continue
        p = vecs.pop(k)
        vecs = [_eliminate(v, p, p[j], v[j]) if v[j] else v for v in vecs]
        basis = [(f, _eliminate(v, p, p[j], v[j]) if v[j] else v) for f, v in basis]
        basis.append((j, p))
    return [[Fraction(c, v[f]) for c in v] for f, v in sorted(basis)]
