"""Greatest common right divisor by Euclid's algorithm in Q(x)[S],
kept as a test oracle.

The package decides whether a gauge map is one to one by a determinant
on integer polynomials (``equivalence._image_is_full``); a map G out of
L is one to one exactly when gcrd(G, L) = 1, and the two must agree.
"""

from symsolve.ore import Operator


def gcrd(a: Operator, b: Operator) -> Operator:
    """Monic gcrd of a and b; the zero operator when both are zero."""
    while b:
        a, b = b, a.right_divmod(b)[1]
    if not a:
        return a
    return a.scalar_mul(1 / a.leading())
