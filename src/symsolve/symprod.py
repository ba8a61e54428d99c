"""Symmetric products of difference operators.

The symmetric product M ⊛ N is the minimal-order monic operator whose
solution space contains every product u·v with M(u) = N(v) = 0.  The
first-order twist and the order-2 square have closed formulas; the
general case reduces shifts of u·v in the ord(M)·ord(N)-dimensional
product-coordinate space and takes the first linear dependency.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple

from .linalg import DependencyFinder
from .ore import Operator
from .poly import Poly, _list_mul, _list_shift, _list_sub
from .ratfunc import RatFunc
from .snf import ShiftClasses, product_classes, shift_classes

__all__ = ["TermRatio", "symprod_first_order", "symsquare_order2", "symprod_general"]


def _with_end_classes(cs: List[list], parts0, parts_d) -> Operator:
    # the canonical form of cs, keeping the shift classes of its end
    # coefficients, which divide prod f(x + s) over parts0 and parts_d
    M = Operator.canonical_from_ints(cs)
    ends = M.int_coeffs()
    M._classes.update({0: product_classes(ends[0], parts0),
                       M.order: product_classes(ends[-1], parts_d)})
    return M


class TermRatio(RatFunc):
    """A term ratio num/den that keeps ``classes``, the shift classes of
    num and den, as ``equivalence.term_candidates`` reads them off the
    end coefficients' classes; it equals and hashes as the RatFunc."""

    __slots__ = ("classes",)

    def __init__(self, num: Poly, den: Poly, classes: Tuple[ShiftClasses, ShiftClasses]):
        super().__init__(num, den)
        self.classes = classes


def symprod_first_order(L: Operator, r: RatFunc) -> Operator:
    """L ⊛ (τ - r): twist by the first-order solution with ratio r.

    b_i = a_i · prod_{j=i}^{d-1} r(x+j); the order is preserved.  It is
    formed over Z as A_i·prod_{j>=i} n(x+j)·prod_{j<i} m(x+j), j < d, for
    A and (n, m) the integer forms of L and of num(r) + den(r)·S, so the
    shift classes of b_0 and b_d are composed from those of a_0, a_d, n
    and m and kept on the result.  A ``TermRatio`` brings those of n
    and m; for any other r they are factored.
    The result is kept on L per r, so a ``GTTransform`` checks its gauge
    source against the operator ``gt_find`` built, not a recomputation.
    """
    if not r:
        raise ValueError("twist ratio must be nonzero")
    d = L.order
    if d < 0:
        raise ValueError("zero operator")
    M = L._twists.get(r)
    if M is None:
        n, m = Operator((r.num, r.den)).int_coeffs()
        out = L.int_coeffs()
        for j in range(d):
            nj, mj = _list_shift(n, j), _list_shift(m, j)
            out = [_list_mul(a, nj if i <= j else mj) for i, a in enumerate(out)]
        if isinstance(r, TermRatio):
            num, den = r.classes
        else:
            num, den = shift_classes(r.num)[1], shift_classes(r.den)[1]
        M = L._twists[r] = _with_end_classes(
            out, [(L.shift_classes(0)[1], 0)] + [(num, j) for j in range(d)],
            [(L.shift_classes(d)[1], 0)] + [(den, j) for j in range(d)])
    return M


def symsquare_order2(K: Operator, D: Fraction = Fraction(1)) -> Operator:
    """Symmetric square of a2·S^2 + p·sqrt(D)·S + a0, given K = a2·S^2 + p·S + a0.

    Order 3 when p·sqrt(D) != 0 (solutions u^2, uv, v^2), order 2 when the
    middle coefficient vanishes (every pairwise product satisfies the
    same two-term recurrence).

    The middle coefficient may carry sqrt(D) (half-argument Gauss family,
    D = 1-z).  Each formula is odd in it, so one common sqrt(D) divides
    out, only D enters and the result stays rational.  D = 1 is the
    square of K itself.  It is formed on the integer form of K, and the
    shift classes of its end coefficients, products of shifts of K's, are
    composed from those of K and kept on the result.
    """
    if K.order != 2:
        raise ValueError("order-2 operator required")
    if not K.is_normal():
        raise ValueError("normal operator required (a_0 != 0)")
    a0, p, a2 = K.int_coeffs()
    c0, c2 = K.shift_classes(0)[1], K.shift_classes(2)[1]
    D = Fraction(D)
    if not p or not D:
        return _with_end_classes([_list_mul(a0, [-c for c in a0]), [], _list_mul(a2, a2)],
                                 [(c0, 0), (c0, 0)], [(c2, 0), (c2, 0)])
    # with x -> x+1 written s, and every b_i times den(D):
    # b3 = p·a2s²·a2, b2 = ps·a2·e, b1 = -a0s·p·e, b0 = -ps·a0s·a0²,
    # e = a0s·a2 - D·ps·p
    dd = [D.denominator]
    a0s, ps, a2s = _list_shift(a0, 1), _list_shift(p, 1), _list_shift(a2, 1)
    e = _list_sub(_list_mul(_list_mul(a0s, a2), dd), _list_mul(_list_mul(ps, p), [D.numerator]))
    b3 = _list_mul(_list_mul(p, a2s), _list_mul(a2s, _list_mul(a2, dd)))
    b2 = _list_mul(_list_mul(ps, a2), e)
    b1 = _list_mul(_list_mul(a0s, p), [-c for c in e])
    b0 = _list_mul(_list_mul(ps, a0s), _list_mul(a0, [-c * dd[0] for c in a0]))
    c1 = K.shift_classes(1)[1]
    return _with_end_classes([b0, b1, b2, b3], [(c1, 1), (c0, 1), (c0, 0), (c0, 0)],
                             [(c1, 0), (c2, 1), (c2, 1), (c2, 0)])


def _shift_reduce_step(vec: List[RatFunc], L: Operator) -> List[RatFunc]:
    # tau * (sum c_i tau^i u)  with tau^d u folded back through L
    d = L.order
    lead = L.leading()
    shifted = [c.shift(1) for c in vec]
    top = shifted[d - 1]
    out = [RatFunc(Poly(), reduce=False)] + shifted[: d - 1]
    if top:
        for i in range(d):
            ci = L.coeff(i)
            if ci:
                out[i] = out[i] - top * (ci / lead)
    return out


def symprod_general(M: Operator, N: Operator) -> Operator:
    """Minimal-order monic annihilator of all products of solutions.

    tau^k(u·v) has coordinates alpha_k ⊗ beta_k in the basis
    tau^i(u)·tau^j(v); the first dependency among k = 0, 1, ... gives
    the coefficients directly, and minimality is by construction.
    """
    if not M.is_normal() or not N.is_normal():
        raise ValueError("normal operators required")
    m, n = M.order, N.order
    if m == 0 or n == 0:
        raise ValueError("positive order required")
    zero = RatFunc(Poly(), reduce=False)
    one = RatFunc(Poly.const(Fraction(1)), reduce=False)
    alpha = [one] + [zero] * (m - 1)
    beta = [one] + [zero] * (n - 1)
    finder = DependencyFinder(m * n)
    for _ in range(m * n + 1):
        prod = [a * b for a in alpha for b in beta]
        dep = finder.feed(prod)
        if dep is not None:
            return Operator(dep)
        alpha = _shift_reduce_step(alpha, M)
        beta = _shift_reduce_step(beta, N)
    raise AssertionError("no dependency within the product-space dimension")
