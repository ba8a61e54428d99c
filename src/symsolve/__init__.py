"""symsolve: closed-form solutions of third-order difference operators
that are symmetric squares of second-order operators, found by matching
GT-invariant local data against a table of base equations."""

__version__ = "0.1.0"

from .poly import P, Poly
from .ratfunc import RF, RatFunc
from .fieldext import NumberField
from .ore import Operator
from .opformat import parse_operator, print_operator
from .solver import Result, solve

__all__ = [
    "P",
    "Poly",
    "RF",
    "RatFunc",
    "NumberField",
    "Operator",
    "parse_operator",
    "print_operator",
    "Result",
    "solve",
    "__version__",
]
