"""Base table of order-3 operators with known squared closed forms.

Each entry stores an order-2 "root" operator template whose symmetric
square is the entry's order-3 base operator, the solution family, and
parameterized local-data templates (Gquo / ValG) used for matching.  The
shipped table lives in data/base_table.json; SYMSOLVE_TABLE or an explicit
path overrides it.
"""

import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from .evaluators import EVALUATORS, eval_special
from .fieldext import demote, rational_sqrt
from .localdata import (GenExpRep, LocalData, ValGEntry, edges_at_infinity,
                        local_data, problem_points, r_equivalent)
from .opformat import (ExprError, eval_fraction, eval_poly, eval_value,
                       parse_template, template_names)
from .ore import Operator
from .poly import P, Poly
from .snf import canonical_shift
from .symprod import symsquare_order2

__all__ = [
    "TableError", "TableValidationError", "TableEntry", "BaseTable",
    "SolutionDescriptor", "load_table", "default_table_path",
    "resolve_table_path", "match_local_data", "solve_parameters",
]


class TableError(ValueError):
    """Schema or file problem in a table definition."""


class TableValidationError(ValueError):
    """An entry failed its self-validation."""


@dataclass(frozen=True)
class SolutionDescriptor:
    expr: str
    evaluator: str
    params: Tuple[Tuple[str, Fraction], ...]

    def param_map(self) -> Dict[str, Fraction]:
        return dict(self.params)

    def eval(self, x: int, exact: bool = False):
        return eval_special(self.evaluator, x, self.param_map(), exact=exact)


_REQUIRED_FIELDS = ("name", "params", "root", "solution", "gquo", "valg",
                    "matcher")


@dataclass
class TableEntry:
    name: str
    params: Tuple[Tuple[str, str], ...]          # (name, domain text)
    root: Dict[str, str]
    solution_expr: str
    evaluator: str
    gquo_templates: Tuple[dict, ...]
    valg_templates: Tuple[dict, ...]
    matcher: Dict[str, object]
    # the templates as instantiate and the matcher read them, parsed once:
    # the root's syntax trees, Gquo's (r, v) pairs, their set and v-set,
    # and the ValG gaps
    root_trees: Dict[str, tuple] = field(init=False, repr=False)
    gquo_pairs: Tuple[Tuple[int, Fraction], ...] = field(init=False, repr=False)
    gquo_shape: frozenset = field(init=False, repr=False)
    gquo_vs: frozenset = field(init=False, repr=False)
    valg_gaps: Tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        self.root_trees = {k: parse_template(t) for k, t in self.root.items()}
        self.gquo_pairs = tuple((int(g["r"]), Fraction(g["v"]))
                                for g in self.gquo_templates)
        self.gquo_shape = frozenset(self.gquo_pairs)
        self.gquo_vs = frozenset(v for _, v in self.gquo_pairs)
        self.valg_gaps = tuple(int(v["gap"]) for v in self.valg_templates)

    @property
    def param_names(self) -> List[str]:
        return [p[0] for p in self.params]

    # -- instantiation --------------------------------------------------------

    def root_polys(self, assignment: Mapping[str, Fraction]
                   ) -> Tuple[Poly, Poly, Fraction, Poly]:
        """(a0, p, D, a2) with the middle coefficient p*sqrt(D)."""
        t = self.root_trees
        a0 = eval_poly(t["a0"], assignment)
        p = eval_poly(t["a1"], assignment)
        D = eval_fraction(t["sqrt"], assignment)
        a2 = eval_poly(t["a2"], assignment)
        return a0, p, D, a2

    def instantiate(self, assignment: Mapping[str, Fraction]
                    ) -> Tuple[Operator, SolutionDescriptor]:
        missing = [n for n in self.param_names if n not in assignment]
        if missing:
            raise TableError(f"entry {self.name!r}: missing parameters {missing}")
        a0, p, D, a2 = self.root_polys(assignment)
        if not a0 or not a2:
            raise TableError(
                f"entry {self.name!r}: root operator is not normal at this value")
        if not p or D == 0:
            raise TableError(
                f"entry {self.name!r}: middle root coefficient vanishes, "
                "not a full operator")
        M = symsquare_order2(Operator([a0, p, a2]), D)
        if M.order != 3 or not M.is_normal():
            raise TableError(
                f"entry {self.name!r}: instantiation degenerates (a_d or a_0 = 0)")
        desc = SolutionDescriptor(
            self.solution_expr, self.evaluator,
            tuple(sorted((k, Fraction(v)) for k, v in assignment.items()
                         if k in self.param_names)))
        return M, desc

    # -- local-data templates -------------------------------------------------

    def expected_valg(self, assignment: Mapping[str, Fraction]) -> set:
        # When two template points land in the same shift class their dips
        # interact by the parity of the integer offset: odd offset adds the
        # gaps, even offset cancels the class outright (the half-power sign
        # pattern repeats at even shifts and the local solutions glue).
        by_class: Dict[Poly, List[Tuple[Fraction, int]]] = {}
        for t in self.valg_templates:
            pt = eval_fraction(t["point"], assignment)
            rep, _k = canonical_shift(P(-pt, 1))
            by_class.setdefault(rep, []).append((pt, int(t["gap"])))
        out = set()
        for rep, dips in by_class.items():
            if len(dips) == 1:
                gap = dips[0][1]
            else:
                (p1, g1), (p2, g2) = dips
                gap = g1 + g2 if int(p1 - p2) % 2 else 0
            if gap > 0:
                out.add(ValGEntry(rep, gap))
        return out

    def expected_gquo(self, assignment: Mapping[str, Fraction]) -> List[GenExpRep]:
        out = []
        for t in self.gquo_templates:
            c = eval_value(t["c"], assignment)
            tail = tuple(eval_value(s, assignment) for s in t["tail"])
            rep = GenExpRep(int(t["r"]), c,
                            Fraction(eval_fraction(str(t["v"]), assignment)),
                            tail, 1)
            if rep not in out:
                out.append(rep)
        return out

    # -- self-validation ------------------------------------------------------

    def sample_assignment(self, rng: random.Random) -> Dict[str, Fraction]:
        return _SAMPLERS[self.matcher["kind"]](rng)

    def self_validate(self, assignment: Mapping[str, Fraction]) -> None:
        M, desc = self.instantiate(assignment)
        data = local_data(M)
        if not data.genexp_complete:
            raise TableValidationError(
                f"entry {self.name!r}: incomplete exponents at {assignment}")
        want_valg = self.expected_valg(assignment)
        if set(data.valg) != want_valg:
            raise TableValidationError(
                f"entry {self.name!r}: ValG mismatch at {assignment}: "
                f"{set(data.valg)} != {want_valg}")
        want_gquo = self.expected_gquo(assignment)
        got_gquo = list(data.gquo)
        for g in got_gquo:
            if not any(r_equivalent(g, w) for w in want_gquo):
                raise TableValidationError(
                    f"entry {self.name!r}: computed Gquo element {g} matches "
                    f"no template at {assignment}")
        for w in want_gquo:
            if not any(r_equivalent(g, w) for g in got_gquo):
                raise TableValidationError(
                    f"entry {self.name!r}: template Gquo element {w} not "
                    f"realized at {assignment}")
        _numeric_solution_check(self.name, M, desc)


def _numeric_solution_check(name: str, M: Operator, desc: SolutionDescriptor,
                            points: int = 6, rtol: float = 1e-9) -> None:
    x0 = 5 + _max_problem_point(M)
    polys = M.poly_coeffs()
    vals = [desc.eval(x, exact=False) for x in range(x0, x0 + points + M.order)]
    for j in range(points):
        x = x0 + j
        terms = [float(polys[i].eval(Fraction(x))) * vals[j + i] ** 2
                 for i in range(M.order + 1)]
        resid = abs(sum(terms))
        scale = max(abs(t) for t in terms)
        if scale > 0 and resid > rtol * scale:
            raise TableValidationError(
                f"entry {name!r}: solution fails its own operator at x={x} "
                f"(residual {resid:.3e} vs scale {scale:.3e})")


def _max_problem_point(L: Operator) -> int:
    worst = 0
    for rep, offs in problem_points(L):
        m = rep.monic()
        if m.degree != 1:
            continue
        r0 = -Fraction(m[0])
        if r0.denominator == 1:
            worst = max(worst, int(r0) + max(offs, default=0))
    return max(worst, 0)


def _rand_fraction(rng: random.Random, lo: Fraction, hi: Fraction,
                   den_max: int = 8) -> Fraction:
    den = rng.randint(2, den_max)
    span = (hi - lo) * den
    num = rng.randint(1, max(1, math.floor(span) - 1))
    return lo + Fraction(num, den)


def _sample_gauss(rng: random.Random) -> Dict[str, Fraction]:
    a = rng.choice([Fraction(0), Fraction(1, 2)])
    b = _rand_fraction(rng, Fraction(0), Fraction(1))
    z = _rand_fraction(rng, Fraction(0), Fraction(1))
    return {"a": a, "b": b, "c": a + b + Fraction(1, 2), "z": z}


def _sample_z(rng: random.Random, exclude=()) -> Dict[str, Fraction]:
    while True:
        z = Fraction(rng.randint(1, 12), rng.randint(1, 12))
        if rng.random() < 0.5:
            z = -z
        if z != 0 and z not in exclude:
            return {"z": z}


_SAMPLERS = {
    "gauss_locus": _sample_gauss,
    "legendre_sq": lambda rng: _sample_z(rng, exclude=(Fraction(1), Fraction(-1))),
    "hermite_sq": _sample_z,
    "besseli_sq": _sample_z,
}


# -- table loading ------------------------------------------------------------

@dataclass
class BaseTable:
    entries: Tuple[TableEntry, ...]
    path: Optional[str] = None

    def __iter__(self):
        return iter(self.entries)

    def entry(self, name: str) -> TableEntry:
        for e in self.entries:
            if e.name == name:
                return e
        raise KeyError(name)

    def self_validate(self, seed: int = 0, samples: int = 3) -> None:
        rng = random.Random(seed)
        for e in self.entries:
            for _ in range(samples):
                e.self_validate(e.sample_assignment(rng))


def default_table_path() -> str:
    return str(Path(__file__).parent / "data" / "base_table.json")


def resolve_table_path(explicit: Optional[str] = None) -> str:
    return explicit or os.environ.get("SYMSOLVE_TABLE") or default_table_path()


def _require(cond: bool, entry: str, fieldname: str, msg: str) -> None:
    if not cond:
        raise TableError(f"entry {entry!r}: field {fieldname!r} {msg}")


def _is_int(v) -> bool:
    """v is a JSON integer (not a float, string or boolean)."""
    return isinstance(v, int) and not isinstance(v, bool)


def _parsed(conv, v):
    """conv(v), or None when v does not convert."""
    try:
        return conv(v)
    except (TypeError, ValueError, ZeroDivisionError):
        return None


def _check_template(entry: str, fieldname: str, text, allowed: set) -> None:
    """text parses and uses no symbol outside allowed ('sqrt' included)."""
    _require(isinstance(text, str), entry, fieldname,
             f"template {text!r} must be a string")
    try:
        unknown = template_names(text) - allowed
    except ExprError as e:
        raise TableError(f"entry {entry!r}: field {fieldname!r} has malformed "
                         f"template {text!r} ({e})") from None
    _require(not unknown, entry, fieldname,
             f"template {text!r} uses unknown symbols {sorted(unknown)}")


def load_table(path: Optional[str] = None) -> BaseTable:
    fname = resolve_table_path(path)
    try:
        raw = json.loads(Path(fname).read_text())
    except FileNotFoundError:
        raise TableError(f"table file not found: {fname}") from None
    except json.JSONDecodeError as e:
        raise TableError(f"table file {fname}: invalid JSON ({e})") from None
    if not isinstance(raw, dict) or not isinstance(raw.get("entries"), list):
        raise TableError(f"table file {fname}: missing top-level 'entries' list")
    entries = []
    seen = set()
    for i, item in enumerate(raw["entries"]):
        if not isinstance(item, dict):
            raise TableError(f"table entry #{i} is not an object")
        name = item.get("name")
        if not isinstance(name, str) or not name:
            raise TableError(f"table entry #{i} without a 'name'")
        if name in seen:
            raise TableError(f"entry {name!r}: duplicate name")
        seen.add(name)
        for f in _REQUIRED_FIELDS:
            _require(f in item, name, f, "is missing")
        _require(isinstance(item["params"], list) and all(
            isinstance(p, dict) and isinstance(p.get("name"), str)
            and "domain" in p for p in item["params"]), name, "params",
            "must be a list of {name, domain}")
        names = {p["name"] for p in item["params"]}
        root = item["root"]
        _require(isinstance(root, dict)
                 and set(root) == {"a0", "a1", "sqrt", "a2"},
                 name, "root", "must have a0/a1/sqrt/a2")
        for key, text in root.items():
            # the radicand is a constant; the coefficients are polynomials in x
            _check_template(name, "root", text,
                            names if key == "sqrt" else names | {"x"})
        sol = item["solution"]
        _require(isinstance(sol, dict) and isinstance(sol.get("expr"), str)
                 and isinstance(sol.get("evaluator"), str),
                 name, "solution", "must have expr and evaluator")
        _require(sol["evaluator"] in EVALUATORS, name, "solution",
                 f"names unknown evaluator {sol['evaluator']!r}")
        _require(isinstance(item["gquo"], list), name, "gquo", "must be a list")
        for g in item["gquo"]:
            _require(isinstance(g, dict)
                     and set(g) >= {"r", "v", "c", "tail"}
                     and isinstance(g["tail"], list)
                     and _is_int(g["r"]) and g["r"] in (1, 2)
                     and len(g["tail"]) == g["r"]
                     and (_is_int(g["v"]) or isinstance(g["v"], str)
                          and _parsed(Fraction, g["v"]) is not None),
                     name, "gquo",
                     "elements need r/v/c/tail with r = 1 or 2, r tail slots "
                     "and v an integer or a fraction string")
            for text in [g["c"]] + g["tail"]:
                _check_template(name, "gquo", text, names | {"sqrt"})
        _require(isinstance(item["valg"], list), name, "valg", "must be a list")
        for v in item["valg"]:
            _require(isinstance(v, dict) and "point" in v
                     and _is_int(v.get("gap")) and v["gap"] > 0,
                     name, "valg", "elements need point and a positive gap")
            _check_template(name, "valg", v["point"], names)
        _require(isinstance(item["matcher"], dict)
                 and item["matcher"].get("kind") in _MATCHERS,
                 name, "matcher",
                 f"kind must be one of {tuple(_MATCHERS)}")
        entries.append(TableEntry(
            name=name,
            params=tuple((p["name"], p["domain"]) for p in item["params"]),
            root=dict(item["root"]),
            solution_expr=sol["expr"],
            evaluator=sol["evaluator"],
            gquo_templates=tuple(item["gquo"]),
            valg_templates=tuple(item["valg"]),
            matcher=dict(item["matcher"]),
        ))
    if not entries:
        raise TableError(f"table file {fname}: no entries")
    return BaseTable(tuple(entries), path=fname)


# -- matching -----------------------------------------------------------------

def _quotient_classes(reps: Sequence[GenExpRep]) -> List[GenExpRep]:
    out: List[GenExpRep] = []
    for g in reps:
        if not any(r_equivalent(g, h) for h in out):
            out.append(g)
    return out


def _shape_of(reps: Sequence[GenExpRep]) -> set:
    return {(g.r, g.v) for g in reps}


def _gaps_compatible(template_gaps: Sequence[int],
                     observed_gaps: Sequence[int]) -> bool:
    """Observed gap multiset reachable from the template one when parameter
    values make template points collide: a pair of classes may merge into a
    single class with the summed gap (odd offset) or vanish (even offset)."""
    tg = sorted(template_gaps)
    og = sorted(observed_gaps)
    if tg == og:
        return True
    if len(tg) == 2 and (og == [tg[0] + tg[1]] or og == []):
        return True
    return False


def _slope_differences(L: Operator) -> set:
    """{s - s'} over the pairs of distinct slopes at infinity of L."""
    slopes = [s for s, _ in edges_at_infinity(L)]
    return {s - t for s in slopes for t in slopes if s != t}


def match_local_data(data: LocalData, table: BaseTable) -> List[TableEntry]:
    """Entries whose slopes at infinity and Gquo shape are compatible
    with the observed data.  ``solve_parameters`` reads the rest.

    The invariants are read in order of cost, each only for an entry
    that passed the ones before: the slopes at infinity, then the
    exponents and their Gquo shape here, then the parameter assignments
    read from Gquo and ValG at the classes of degree 1 in
    ``solve_parameters``.  An input whose slopes fit no entry computes
    no exponent.

    Slopes.  With D = {s - s'} over the distinct slopes of L at infinity
    and V_e the set of template ``v`` values of entry e, e is skipped
    unless D ⊆ V_e ⊆ D ∪ {0}.  Every exponent on an edge of slope s has
    v = -s, so exponents on different edges are distinct and Gquo holds
    their quotient, with v = s' - s; two exponents on one edge give
    v = 0.  r-equivalent quotients share v, so the observed v-set lies
    in D ∪ {0}, and it contains D when every edge carries an exponent.
    A complete set does: the exponents on an edge of length ℓ have total
    multiplicity at most ℓ, the dimension of the formal solutions of
    that growth, and the lengths sum to the order.  The shape rule below
    needs V_e to equal the observed v-set, so on a complete set the
    slope test skips only entries the shape rule rejects.  On an
    incomplete set it still passes every true disguise of e's base: the
    base's own set is complete (``TableEntry.self_validate`` checks it),
    so its slope differences pass, and ``gt_find`` succeeds only when
    L's edges are the base's, all shifted by deg r, which leaves D as it
    is.
    """
    diffs = _slope_differences(data.operator)
    shaped = [e for e in table if diffs <= e.gquo_vs <= diffs | {0}]
    if not shaped or len(data.genexp) == 0:
        return []
    obs_classes = _quotient_classes(list(data.gquo))
    obs_shape = _shape_of(obs_classes)
    # constants may collide at special parameter values, so the observed
    # class count can drop below the template's, never exceed it
    return [e for e in shaped if e.gquo_shape == obs_shape
            and len(obs_classes) <= len(e.gquo_pairs)]


# -- parameter matchers -------------------------------------------------------
# One assignment per base operator up to a shift of x, the first of its
# class in the order (z, a, b, c).  A disguise L of a base M has M's
# exponents times one common factor, so L's Gquo has M's constants and
# slopes.  Each kept reading reads a quotient of the middle exponent, a
# simple root at infinity that is always found, and an end one, so if L
# is a disguise of the entry at z' it returns z'.  A reading that only adds
# other values adds none at which gt_find can succeed.  Parameters are
# rational, so a reading that can only give an irrational z is skipped.

def _positive_roots(squares) -> List[Fraction]:
    """The positive rational square roots among squares, ascending.
    Negating z negates Legendre's and Hermite's middle root coefficient
    and Bessel's end ones, which maps each root solution y to (-1)^x·y.
    The square removes the sign, so ±z give one base and z > 0 stands
    for both."""
    roots = {rational_sqrt(zz) for zz in map(demote, squares)
             if isinstance(zz, Fraction)}
    return sorted(z for z in roots if z)


def _match_gauss(entry: TableEntry, data: LocalData
                 ) -> List[Dict[str, Fraction]]:
    """Assignments of the half-argument Gauss entry.  ValG at the classes
    of degree 1, the only essential ones of a disguise (see
    ``solve_parameters``), fixes b modulo 1/2 as β, leaving (0, β+1/2, β+1),
    (1/2, β, β+1) and (1/2, β+1/2, β+3/2) on the locus c = a + b + 1/2.
    The second has the root polynomials of the first after x -> x+1, so
    it is dropped.  Gquo is {-R, -1/R, R², 1/R²}
    with R = 2z-1+2·sqrt(z²-z), and z = (R+1)²/(4R) for R and 1/R alike,
    so reading every element as -R finds z.  Reading elements as R² adds
    only values like 1-z, whose base has R and 1/R in Gquo, not -R and -1/R.

    The base is the order-3 locus form because the other presentation of
    these functions, the square of the order-2 recurrence of
    2F1(-x+a, x+b; c; z) interlaced with step 2, has order 6 and is not
    minimal: its endomorphism space has dimension > 1.

    Gquo is read before ValG, and ValG only when it gives some rational
    z in (0, 1): an input with none gets no assignment whatever its
    classes, and computes no valuation growth here."""
    zs = set()
    for g in data.gquo:
        if g.r != 1 or g.v != 0:
            return []
        R = -g.c
        zz = demote((R + 1) * (R + 1) / (4 * R))
        if isinstance(zz, Fraction) and 0 < zz < 1:
            zs.add(zz)
    if not zs:
        return []

    roots = [-Fraction(e.cls[0]) for e in data.rational_valg]
    nonzero = [r for r in roots if r != 0]
    if len(roots) == 2 and len(nonzero) == 1:
        beta = (-nonzero[0] / 2) % Fraction(1, 2)
    elif len(roots) <= 1 and not nonzero:
        # merged classes (summed or cancelled): both points sit over 0
        beta = Fraction(0)
    else:
        return []
    half = Fraction(1, 2)
    return [{"a": a, "b": beta + half, "c": a + beta + 1, "z": z}
            for z in sorted(zs) for a in (Fraction(0), half)]


def _match_legendre(entry: TableEntry, data: LocalData
                    ) -> List[Dict[str, Fraction]]:
    """Assignments of the Legendre entry, z > 0.  Gquo is {λ, 1/λ, λ², 1/λ²}
    with λ = 2z²-1+2·sqrt(z⁴-z²), and z² = (λ+1)²/(4λ) for λ and 1/λ alike,
    so reading every element as λ finds z².  Reading elements as λ² adds only
    values like 1-z², whose base has -λ and -1/λ in Gquo, not λ and 1/λ."""
    squares = []
    for g in data.gquo:
        if g.r != 1 or g.v != 0:
            return []
        squares.append((g.c + 1) * (g.c + 1) / (4 * g.c))
    return [{"z": z} for z in _positive_roots(squares) if z != 1]


def _match_hermite(entry: TableEntry, data: LocalData
                   ) -> List[Dict[str, Fraction]]:
    """Assignments of the Hermite entry, z > 0.  Gquo holds c = -1 with
    tail (±w, -z²) and c = 1 with tail (±2w, -4z²), where w² = -2z², so
    the c = -1 elements give z² = -w²/2, as the c = 1 ones do by -(2w)²/8."""
    squares = []
    for g in data.gquo:
        if g.r != 2 or g.v != 0 or g.c not in (Fraction(1), Fraction(-1)):
            return []
        if g.c == -1:
            squares.append(-g.tail[0] * g.tail[0] / 2)
    return [{"z": z} for z in _positive_roots(squares)]


def _match_bessel(entry: TableEntry, data: LocalData
                  ) -> List[Dict[str, Fraction]]:
    """Assignments of the Bessel entry, z > 0.  Gquo's slope-2 element has
    c = -z²/4.  Gquo holds each element's inverse, so the slope -2 one,
    c' = 1/c, gives the same z² as -4/c'."""
    squares = []
    for g in data.gquo:
        if g.r != 1:
            return []
        if g.v == 2:
            squares.append(-4 * g.c)
    return [{"z": z} for z in _positive_roots(squares)]


_MATCHERS = {
    "gauss_locus": _match_gauss,
    "legendre_sq": _match_legendre,
    "hermite_sq": _match_hermite,
    "besseli_sq": _match_bessel,
}


def solve_parameters(entry: TableEntry, data: LocalData
                     ) -> List[Dict[str, Fraction]]:
    """The parameter assignments of an entry that ``match_local_data``
    returned, as far as the local data allows them: one assignment per
    base operator up to a shift of x, so each is worth one ``gt_find``
    call.  [] when the entry's matcher finds none, or when the ValG gaps
    at the rational classes do not fit its template.

    Parameters before ValG.  The gaps are tested only once the matcher
    has returned assignments.  An entry with none gives no ``gt_find``
    call whatever its gaps, so the (entry, assignment) pairs a solve
    tries are those of the order shape, gaps, assignments, in the same
    order.  Only the Gauss matcher reads ValG, and only once Gquo has
    given a rational z (``_match_gauss``), so an input whose Gquo holds
    no rational parameter for any entry of its shape computes no
    valuation growth.

    ValG at rational classes only.  Every template point (-2b and 2a for
    Gauss, 0 for Legendre and Hermite, none for Bessel) is rational at
    rational parameters, and (class, gap) up to shift is GT-invariant,
    so every essential class of a disguise of a table base has degree 1.
    Found answers cannot move: if a class of degree >= 2 has gap > 0, no
    ``gt_find`` can succeed, and if all such gaps are 0, the degree-1
    multiset is the full one.  Two effects are visible, both on inputs
    that are no disguise.  ``_gaps_compatible`` does not look at
    degrees, so an essential degree-2 class with gap 2 used to fit
    Hermite's template before ``gt_find`` failed; now it is not read,
    and the input ends in "not found" all the same.  Conversely, an
    essential class of degree >= 2 that kept the gaps from fitting a
    template is not read either, and such an input now reaches
    ``gt_find``, which finds nothing.
    """
    assignments = _MATCHERS[entry.matcher["kind"]](entry, data)
    if assignments and not _gaps_compatible(
            entry.valg_gaps, [e.gap for e in data.rational_valg]):
        return []
    return assignments
