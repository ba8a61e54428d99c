"""The table matchers as they returned every reading of every invariant,
kept as a test oracle.

``symsolve.table`` returns one assignment per base operator up to a shift
of x.  Each assignment it returns must be one of these, and each one it
drops must name a base operator it keeps (or that operator's x-shift),
or fail ``gt_find``.

``match_local_data`` is the entry matcher as it read every exponent
before any entry and ValG at every class.
"""

from fractions import Fraction
from typing import Dict, List, Optional, Sequence

from symsolve.fieldext import demote, rational_sqrt, value_sqrt
from symsolve.localdata import LocalData
from symsolve.table import (BaseTable, TableEntry, _gaps_compatible,
                            _quotient_classes, _shape_of)


def match_local_data(data: LocalData, table: BaseTable,
                     max_degree: Optional[int] = None) -> List[TableEntry]:
    """Entries whose Gquo shape equals the observed one and whose ValG
    gaps fit, read from the full exponent set and from the essential
    classes of degree at most ``max_degree`` (all when None)."""
    if len(data.genexp) == 0:
        return []
    obs_classes = _quotient_classes(list(data.gquo))
    obs_shape = _shape_of(obs_classes)
    gaps = [e.gap for e in data.valg
            if max_degree is None or e.cls.degree <= max_degree]
    out = []
    for entry in table:
        t_pairs = [(int(g["r"]), Fraction(g["v"])) for g in entry.gquo_templates]
        if set(t_pairs) != obs_shape or len(obs_classes) > len(t_pairs):
            continue
        if not _gaps_compatible([int(v["gap"]) for v in entry.valg_templates], gaps):
            continue
        out.append(entry)
    return out


def _both_signs(s) -> list:
    """The square roots ±s read off one root s (``rational_sqrt`` or
    ``value_sqrt``); none when s is None."""
    if s is None:
        return []
    return [s, -s] if s else [s]


def _sorted_unique(vals: Sequence[Fraction]) -> List[Fraction]:
    return sorted(set(vals), key=lambda q: (abs(q), q < 0, q))


def _match_gauss(entry: TableEntry, data: LocalData
                 ) -> List[Dict[str, Fraction]]:
    """Assignments of the half-argument Gauss entry.  When g.c has no
    square root in its field, a root R of R² = g.c has degree 4, but a
    rational zz = (R+1)²/(4R) makes R a root of R² + (2-4zz)·R + 1."""
    roots = []
    for e in data.valg:
        rep = e.cls
        if rep.degree != 1:
            return []
        roots.append(-Fraction(rep[0]))
    a_cands = [Fraction(0), Fraction(1, 2)]
    nonzero = [r for r in roots if r != 0]
    if len(roots) == 2 and len(nonzero) == 1:
        beta = (-nonzero[0] / 2) % Fraction(1, 2)
    elif len(roots) <= 1 and not nonzero:
        # merged classes (summed or cancelled): both points sit over 0
        beta = Fraction(0)
    else:
        return []
    b_cands = [beta, beta + Fraction(1, 2)]
    c_cands = [beta + 1, beta + Fraction(3, 2)]

    z_cands: List[Fraction] = []
    for g in data.gquo:
        if g.r != 1 or g.v != 0:
            return []
        ratios = [-g.c]                            # value read as -R
        ratios += _both_signs(value_sqrt(g.c))     # value read as R^2
        for R in ratios:
            if not R:
                continue
            zz = demote((R + 1) * (R + 1) / (4 * R))
            if isinstance(zz, Fraction) and 0 < zz < 1:
                z_cands.append(zz)
    z_cands = _sorted_unique(z_cands)

    assignments = []
    for z in z_cands:
        for a in a_cands:
            for b in b_cands:
                c = a + b + Fraction(1, 2)
                if c in c_cands:
                    assignments.append({"a": a, "b": b, "c": c, "z": z})
    assignments.sort(key=lambda m: (m["z"], m["a"], m["b"], m["c"]))
    return assignments


def _match_legendre(entry: TableEntry, data: LocalData
                    ) -> List[Dict[str, Fraction]]:
    """Assignments of the Legendre entry.  In the λ⁴-type reading a
    rational zz = (2a+s)/(4a) forces s = (4zz-2)·a, which lies in Q(a)."""
    z_cands: List[Fraction] = []
    for g in data.gquo:
        if g.r != 1 or g.v != 0:
            return []
        aval = g.c
        # lambda^2-type element: z^2 = (a+1)^2 / (4a)
        zz = demote((aval + 1) * (aval + 1) / (4 * aval))
        if isinstance(zz, Fraction):
            z_cands.extend(_both_signs(rational_sqrt(zz)))
        # lambda^4-type element: z^2 = (2a +- sqrt(a^3+2a^2+a)) / (4a)
        for s in _both_signs(value_sqrt(aval * (aval + 1) * (aval + 1))):
            zz = demote((2 * aval + s) / (4 * aval))
            if isinstance(zz, Fraction):
                z_cands.extend(_both_signs(rational_sqrt(zz)))
    z_cands = [z for z in _sorted_unique(z_cands) if z != 0 and abs(z) != 1]
    return [{"z": z} for z in z_cands]


def _match_hermite(entry: TableEntry, data: LocalData
                   ) -> List[Dict[str, Fraction]]:
    """Assignments of the Hermite entry: z² is -w²/2 or -w²/8 for the
    tail w, so an irrational w² gives an irrational z²."""
    z_cands: List[Fraction] = []
    for g in data.gquo:
        if g.r != 2 or g.v != 0 or not g.tail:
            return []
        if g.c not in (Fraction(1), Fraction(-1)):
            return []
        w2 = demote(g.tail[0] * g.tail[0])
        if not isinstance(w2, Fraction):
            continue
        zz = -w2 / 2 if g.c == -1 else -w2 / 8
        z_cands.extend(_both_signs(rational_sqrt(zz)))
    z_cands = [z for z in _sorted_unique(z_cands) if z != 0]
    return [{"z": z} for z in z_cands]


def _match_bessel(entry: TableEntry, data: LocalData
                  ) -> List[Dict[str, Fraction]]:
    """Assignments of the Bessel entry: z² is -4c or -4/c for the
    quotient constant c, so an irrational c gives an irrational z²."""
    z_sq: List[Fraction] = []
    for g in data.gquo:
        if g.r != 1:
            return []
        if not isinstance(g.c, Fraction):
            continue
        if g.v == 2:
            z_sq.append(-4 * g.c)
        elif g.v == -2 and g.c != 0:
            z_sq.append(-4 / g.c)
    z_cands: List[Fraction] = []
    for zz in z_sq:
        z_cands.extend(_both_signs(rational_sqrt(zz)))
    z_cands = [z for z in _sorted_unique(z_cands) if z != 0]
    return [{"z": z} for z in z_cands]


_MATCHERS = {
    "gauss_locus": _match_gauss,
    "legendre_sq": _match_legendre,
    "hermite_sq": _match_hermite,
    "besseli_sq": _match_bessel,
}


def solve_parameters(entry: TableEntry, data: LocalData
                     ) -> List[Dict[str, Fraction]]:
    return _MATCHERS[entry.matcher["kind"]](entry, data)
