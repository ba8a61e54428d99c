"""The skew ring D = F(x)[S] of linear difference operators.

S is the shift x -> x+1, with the commutation rule S*f(x) = f(x+1)*S.
Coefficients are RatFunc over Q or over a quadratic number field, stored
exactly (no silent rescaling); construction and ring arithmetic work over
either.  canonical(), the representative of the left F(x)-orbit by which
answers are printed and compared, and every exact kernel read one integer
form, int_coeffs(), which needs rational values.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd as _igcd
from typing import Iterable, List, Sequence, Tuple

from .fieldext import demote
from .poly import Poly, _int_cleared, _int_exact_div, _int_gcd_prs, poly_lcm
from .ratfunc import RatFunc
from .snf import ShiftClasses, shift_classes

__all__ = ["Operator", "solution_window"]


def _to_ratfunc(c) -> RatFunc:
    if isinstance(c, RatFunc):
        return c
    if isinstance(c, Poly):
        return RatFunc(c, reduce=False)
    if isinstance(c, int):
        c = Fraction(c)
    return RatFunc(Poly.const(c), reduce=False)


class Operator:
    """Difference operator sum a_i * S^i with rational-function a_i."""

    __slots__ = ("coeffs", "_canon", "_den", "_polys", "_ints", "_classes",
                 "_edges", "_exponents", "_twists")

    def __init__(self, coeffs: Iterable = ()):
        cs = [_to_ratfunc(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)
        self._canon = None
        self._den = None
        self._polys = None
        self._ints = None
        self._classes = {}
        self._edges = None  # kept by localdata.edges_at_infinity
        self._exponents = None  # kept by localdata.generalized_exponents
        self._twists = {}  # kept by symprod.symprod_first_order

    # -- constructors ----------------------------------------------------

    @classmethod
    def identity(cls) -> "Operator":
        return cls((RatFunc(Poly.const(Fraction(1)), reduce=False),))

    @classmethod
    def tau(cls) -> "Operator":
        one = RatFunc(Poly.const(Fraction(1)), reduce=False)
        return cls((RatFunc(Poly(), reduce=False), one))

    # -- queries ------------------------------------------------------------

    @property
    def order(self) -> int:
        """ord(L); the zero operator gets -1."""
        return len(self.coeffs) - 1

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, i: int) -> RatFunc:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return RatFunc(Poly(), reduce=False)

    def leading(self) -> RatFunc:
        return self.coeffs[-1]

    def is_normal(self) -> bool:
        """a_0 != 0 (and nonzero operator)."""
        return bool(self.coeffs) and bool(self.coeffs[0])

    def __eq__(self, other):
        if not isinstance(other, Operator):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    # -- canonical form -------------------------------------------------------

    def poly_coeffs(self) -> Tuple[Poly, ...]:
        """Coefficients times the least common multiple of their
        denominators, a unit of F(x), over Q or a number field; kept and
        read by ``int_coeffs()``.  A coefficient whose denominator is that
        multiple keeps its numerator (both monic, so the cofactor is 1)."""
        if self._polys is None:
            den = Poly.const(Fraction(1))
            for c in self.coeffs:
                if c.den.degree > 0:
                    den = poly_lcm(den, c.den) if den.degree > 0 else c.den
            self._den = den
            self._polys = tuple(c.num if not c or c.den == den
                                else c.num * den.exact_div(c.den)
                                for c in self.coeffs)
        return self._polys

    def denominator(self) -> Poly:
        """The monic least common multiple of the coefficient
        denominators: ``poly_coeffs()`` is this times the operator."""
        self.poly_coeffs()
        return self._den

    def shift_classes(self, i: int) -> Tuple[Fraction, ShiftClasses]:
        """``snf.shift_classes`` of ``poly_coeffs()[i]``, kept per index, so
        each coefficient is factored once however often it is read.  The
        symmetric square and the twist keep those of their end
        coefficients, composed, when they build an operator."""
        got = self._classes.get(i)
        if got is None:
            p = self.poly_coeffs()[i]
            got = self._classes[i] = shift_classes(
                p if p.is_rational() else p.map_coeffs(demote))
        return got

    def int_coeffs(self) -> List[list]:
        """``poly_coeffs()`` times one positive integer, as integer lists
        that are kept and that no reader may change.  A number-field
        coefficient with a rational value is read as that value; any
        other raises ValueError."""
        if self._ints is None:
            polys = [p if p.is_rational() else p.map_coeffs(demote)
                     for p in self.poly_coeffs()]
            if not all(p.is_rational() for p in polys):
                raise ValueError("rational coefficients required")
            self._ints = _int_cleared(polys)
        return self._ints

    def canonical(self) -> "Operator":
        """Representative of {f(x)·L}: ``canonical_from_ints(int_coeffs())``."""
        if self._canon is None:
            self._canon = Operator.canonical_from_ints(self.int_coeffs()) \
                if self.coeffs else self
        return self._canon

    @classmethod
    def canonical_from_ints(cls, cs: List[list]) -> "Operator":
        """The canonical form of sum cs[i](x)·S^i for integer coefficient
        lists cs, the last nonzero, formed on them: divided over Z by their
        primitive gcd (exact by Gauss's lemma), then by their content
        signed so that the leading coefficient of a_d is positive.  It
        keeps its own lists as ``int_coeffs()``."""
        g = reduce(_int_gcd_prs, filter(None, cs), [])
        if len(g) > 1:
            cs = [_int_exact_div(c, g) for c in cs]
        content = _igcd(*(a for c in cs for a in c))
        if cs[-1][-1] < 0:
            content = -content
        if content != 1:
            cs = [[a // content for a in c] for c in cs]
        canon = cls([Poly(c) for c in cs])
        canon._ints = cs
        canon._canon = canon
        return canon

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Operator):
            other = Operator((_to_ratfunc(other),))
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Operator(out)

    __radd__ = __add__

    def __neg__(self):
        return Operator(tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        if not isinstance(other, Operator):
            other = Operator((_to_ratfunc(other),))
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Operator composition (self applied after other)."""
        if not isinstance(other, Operator):
            other = Operator((_to_ratfunc(other),))
        if not self.coeffs or not other.coeffs:
            return Operator()
        out = [RatFunc(Poly(), reduce=False)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if not a:
                continue
            for j, b in enumerate(other.coeffs):
                if not b:
                    continue
                out[i + j] = out[i + j] + a * b.shift(i)
        return Operator(out)

    def __rmul__(self, other):
        # scalar * L
        return Operator((_to_ratfunc(other),)) * self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative operator power")
        result = Operator.identity()
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def scalar_mul(self, c) -> "Operator":
        c = _to_ratfunc(c)
        return Operator(tuple(c * a for a in self.coeffs))

    # -- division ---------------------------------------------------------------

    def right_divmod(self, other: "Operator") -> Tuple["Operator", "Operator"]:
        """L = Q·M + R with ord(R) < ord(M), exact over F(x)."""
        if not other:
            raise ZeroDivisionError("right division by the zero operator")
        rem = list(self.coeffs)
        dM = other.order
        lM = other.leading()
        quo = [RatFunc(Poly(), reduce=False)] * max(0, len(rem) - dM)
        while len(rem) > dM:
            while rem and not rem[-1]:
                rem.pop()
            if len(rem) <= dM:
                break
            k = len(rem) - 1 - dM
            c = rem[-1] / lM.shift(k)
            quo[k] = quo[k] + c
            for j, b in enumerate(other.coeffs):
                rem[k + j] = rem[k + j] - c * b.shift(k)
            rem.pop()
        return Operator(quo), Operator(rem)

    def __mod__(self, other):
        return self.right_divmod(other)[1]

    # -- difference-specific maps ----------------------------------------------------

    def apply_window(self, values: Sequence, n0) -> List:
        """Residuals sum_i a_i(n) v(n+i) for n = n0 .. n0+len-1-d, exact.

        values[j] is the sequence at x = n0 + j; points where a
        coefficient has a pole raise with the point named.
        """
        d = self.order
        if d < 0:
            raise ValueError("zero operator")
        out = []
        for base in range(len(values) - d):
            n = n0 + base
            acc = Fraction(0)
            for i, c in enumerate(self.coeffs):
                if not c:
                    continue
                try:
                    cv = c.eval(n)
                except ZeroDivisionError:
                    raise ZeroDivisionError(f"coefficient pole at x = {n}")
                acc = acc + cv * values[base + i]
            out.append(acc)
        return out

    def __repr__(self):
        if not self.coeffs:
            return "Operator(0)"
        parts = []
        for i in range(self.order, -1, -1):
            c = self.coeff(i)
            if not c:
                continue
            term = "" if i == 0 else ("S" if i == 1 else f"S^{i}")
            cs = c.to_str()
            if term and cs == "1":
                parts.append(term)
            else:
                parts.append(f"({cs})" + ("*" + term if term else ""))
        return "Operator(" + " + ".join(parts) + ")"


def solution_window(L: Operator, inits: Sequence, n0: int, length: int) -> List:
    """Exact solution values u(n0), ..., u(n0+length-1) from d initial
    values, unrolling the recurrence; requires a_d pole- and zero-free
    and the other coefficients pole-free on the points used."""
    d = L.order
    if len(inits) != d:
        raise ValueError(f"need exactly {d} initial values")
    vals = [Fraction(v) if isinstance(v, int) else v for v in inits]
    lead = L.leading()
    while len(vals) < length:
        n = n0 + len(vals) - d
        lv = lead.eval(n)
        if not lv:
            raise ZeroDivisionError(f"leading coefficient vanishes at x = {n}")
        acc = 0
        for i in range(d):
            ci = L.coeff(i)
            if ci:
                acc = acc + ci.eval(n) * vals[len(vals) - d + i]
        vals.append(-acc / lv)
    return vals[:length]
