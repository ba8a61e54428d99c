"""The interlaced presentation of the half-argument Gauss entry, kept as
a test oracle.

The entry's solutions 2F1(-x/2+a, x/2+b; c; z)² are g(x/2)² with
g(x) = 2F1(-x+a, x+b; c; z), which solves the order-2 operator
``full_argument_root``.  Its symmetric square interlaced with step 2
presents them by an order-6 operator.  ``interlaced_gate`` checks that
this presentation is not minimal (its endomorphism space has dimension
> 1), which is why the table's base equation is the order-3 locus form;
``symsolve.table._match_gauss`` carries the argument.  No solve or
certificate needs the gate."""

from fractions import Fraction
from typing import Mapping

from symsolve.equivalence import hom_space
from symsolve.ore import Operator
from symsolve.poly import P, Poly
from symsolve.ratfunc import RatFunc
from symsolve.symprod import symsquare_order2


def interlace(L: Operator, m: int) -> Operator:
    """Section-interlacing: sum a_i(x/m) τ^{m·i}; solutions of L read on
    the arithmetic progression x ≡ 0 (mod m) solve the result."""
    if m < 1:
        raise ValueError("step must be at least 1")
    if m == 1:
        return L
    sub = Poly((Fraction(0), Fraction(1, m)))
    zero = RatFunc(Poly(), reduce=False)
    out = [zero] * (m * L.order + 1)
    for i in range(L.order + 1):
        c = L.coeff(i)
        if c:
            out[m * i] = RatFunc(c.num.eval(sub), c.den.eval(sub))
    return Operator(out)


def full_argument_root(assignment: Mapping[str, Fraction]) -> Operator:
    """Order-2 recurrence of g(x) = 2F1(-x+a, x+b; c; z) (contiguous
    relation in the first parameter pair), used for the interlaced
    presentation of the half-argument entry."""
    a, b, c, z = (Fraction(assignment[k]) for k in ("a", "b", "c", "z"))
    x = P(0, 1)
    n = x - Poly.const(a)
    s = a + b - 1
    al = c - 1
    be = a + b - c
    y = 1 - 2 * z
    one = Poly.const(Fraction(1))

    def sc(q):
        return Poly.const(Fraction(q))

    A = sc(2) * (n + sc(c)) * (n + sc(s + 2)) * (sc(2) * n + sc(s + 2)) \
        * (n + sc(c + 1))
    B = -(n + sc(c)) * (sc(2) * n + sc(s + 3)) * (
        (sc(2) * n + sc(s + 4)) * (sc(2) * n + sc(s + 2)) * sc(y)
        + sc(al * al - be * be) * one)
    C = sc(2) * (n + sc(1)) * (n + sc(al + 1)) * (n + sc(be + 1)) \
        * (sc(2) * n + sc(s + 4))
    return Operator([C, B, A]).canonical()


def interlaced_gate(assignment: Mapping[str, Fraction]) -> bool:
    """The order-6 interlaced presentation is non-minimal: its endomorphism
    space has dimension > 1, which is the signal to prefer the order-3
    locus form as the base equation."""
    K_full = full_argument_root(assignment)
    M_full = symsquare_order2(K_full)
    L6 = interlace(M_full, 2)
    return len(hom_space(L6, L6)) > 1
