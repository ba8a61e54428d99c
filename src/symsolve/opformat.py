"""Text format for difference operators.

Grammar: polynomial expressions in `x` and the shift symbol `S` over Q,
with + - * / ^ (also **), parentheses, and implicit multiplication by
adjacency ("2x", "4(x+2)", "(x+1)S").  Multiplication respects the
commutation rule S*f(x) = f(x+1)*S; division is by order-0 scalars only
and multiplies by the reciprocal on the left.  print_operator emits the
canonical form, and parse(print(L)) == L.canonical() exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Tuple

from .ore import Operator
from .poly import Poly
from .ratfunc import RatFunc

__all__ = ["parse_operator", "parse_ratfunc", "print_operator", "OperatorSyntaxError"]


class OperatorSyntaxError(ValueError):
    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


# -- tokenizer ------------------------------------------------------------

_TOK_NUM = "num"
_TOK_SYM = "sym"
_TOK_OP = "op"
_TOK_END = "end"


def _tokenize(text: str) -> List[Tuple[str, object, int]]:
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == ".":
                raise OperatorSyntaxError("decimal literals are not exact; use fractions", i)
            toks.append((_TOK_NUM, int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if len(word) > 1 and all(c in "xS" for c in word):
                # adjacency of single-letter symbols: xS means x*S
                for k, c in enumerate(word):
                    toks.append((_TOK_SYM, c, i + k))
            else:
                toks.append((_TOK_SYM, word, i))
            i = j
            continue
        if text.startswith("**", i):
            toks.append((_TOK_OP, "^", i))
            i += 2
            continue
        if ch in "+-*/^()":
            toks.append((_TOK_OP, ch, i))
            i += 1
            continue
        raise OperatorSyntaxError(f"unexpected character {ch!r}", i)
    toks.append((_TOK_END, None, n))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def parse(self) -> Operator:
        v = self.expr()
        kind, _, pos = self.peek()
        if kind != _TOK_END:
            raise OperatorSyntaxError("trailing input", pos)
        return v

    # expr := ['+'|'-'] term (('+'|'-') term)*
    def expr(self) -> Operator:
        kind, val, _ = self.peek()
        neg = False
        if kind == _TOK_OP and val in "+-":
            self.next()
            neg = val == "-"
        acc = self.term()
        if neg:
            acc = -acc
        while True:
            kind, val, _ = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.next()
                rhs = self.term()
                acc = acc - rhs if val == "-" else acc + rhs
            else:
                return acc

    # term := factor (('*'|'/'| adjacency) factor)*
    def term(self) -> Operator:
        acc = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == _TOK_OP and val in "*/":
                self.next()
                rhs = self.factor()
                if val == "*":
                    acc = acc * rhs
                else:
                    acc = self._divide(acc, rhs, pos)
            elif kind in (_TOK_NUM, _TOK_SYM) or (kind == _TOK_OP and val == "("):
                # adjacency: 2x, 4(x+2), (x+1)S, xS
                rhs = self.factor()
                acc = acc * rhs
            else:
                return acc

    @staticmethod
    def _divide(acc: Operator, rhs: Operator, pos: int) -> Operator:
        if not rhs:
            raise OperatorSyntaxError("division by zero", pos)
        if rhs.order != 0:
            raise OperatorSyntaxError("division only by scalar (order-0) expressions", pos)
        inv = 1 / rhs.coeff(0)
        return acc.scalar_mul(inv)

    # factor := atom ['^' exponent]
    def factor(self) -> Operator:
        base = self.atom()
        kind, val, pos = self.peek()
        if kind == _TOK_OP and val == "^":
            self.next()
            e = self._exponent()
            if e < 0:
                if base.order != 0 or not base:
                    raise OperatorSyntaxError("negative power of a non-scalar", pos)
                return Operator((base.coeff(0) ** e,))
            return base**e
        return base

    def _exponent(self) -> int:
        kind, val, pos = self.peek()
        if kind == _TOK_NUM:
            self.next()
            return val
        if kind == _TOK_OP and val == "(":
            self.next()
            sign = 1
            kind, val, pos2 = self.peek()
            if kind == _TOK_OP and val in "+-":
                self.next()
                sign = -1 if val == "-" else 1
            kind, val, pos2 = self.peek()
            if kind != _TOK_NUM:
                raise OperatorSyntaxError("integer exponent expected", pos2)
            self.next()
            self._expect(")")
            return sign * val
        raise OperatorSyntaxError("integer exponent expected", pos)

    def _expect(self, op: str):
        kind, val, pos = self.peek()
        if kind != _TOK_OP or val != op:
            raise OperatorSyntaxError(f"expected {op!r}", pos)
        self.next()

    def atom(self) -> Operator:
        kind, val, pos = self.next()
        if kind == _TOK_NUM:
            return Operator((RatFunc(Poly.const(Fraction(val)), reduce=False),))
        if kind == _TOK_SYM:
            if val == "x":
                return Operator((RatFunc(Poly((Fraction(0), Fraction(1))), reduce=False),))
            if val == "S":
                return Operator.tau()
            raise OperatorSyntaxError(f"unknown symbol {val!r} (use x and S)", pos)
        if kind == _TOK_OP and val == "(":
            v = self.expr()
            self._expect(")")
            return v
        if kind == _TOK_OP and val in "+-":
            v = self.factor()
            return -v if val == "-" else v
        raise OperatorSyntaxError("expression expected", pos)


def parse_operator(text: str, require_normal: bool = True) -> Operator:
    """Parse an operator; with require_normal, reject a_0 = 0 or L = 0."""
    L = _Parser(text).parse()
    if require_normal and not L.is_normal():
        raise ValueError("not normal (a_0 = 0)")
    return L


def parse_ratfunc(text: str) -> RatFunc:
    L = _Parser(text).parse()
    if L.order > 0:
        raise ValueError("expected a scalar rational expression without S")
    return L.coeff(0)


# -- printing ------------------------------------------------------------------


def _is_monomial(p: Poly) -> bool:
    return sum(1 for c in p.coeffs if c) == 1


def _mono_str(p: Poly) -> str:
    # single-term polynomial, positive leading coefficient
    k = p.degree
    c = p.lead()
    xs = "" if k == 0 else ("x" if k == 1 else f"x^{k}")
    if c == 1 and xs:
        return xs
    cs = str(Fraction(c))
    return f"{cs}*{xs}" if xs else cs


def print_operator(L: Operator) -> str:
    """Canonical text form; parse_operator round-trips it exactly."""
    if not L:
        return "0"
    L = L.canonical()
    polys = [c.num for c in L.coeffs]  # canonical => denominators are 1
    if not all(p.is_rational() for p in polys):
        # number-field coefficients: display only
        return repr(L)
    pieces = []
    for i in range(L.order, -1, -1):
        p = polys[i]
        if not p:
            continue
        neg = p.lead() < 0
        q = -p if neg else p
        spow = "" if i == 0 else ("S" if i == 1 else f"S^{i}")
        if _is_monomial(q):
            body = _mono_str(q)
            if spow:
                body = spow if body == "1" else f"{body}*{spow}"
        elif spow:
            body = f"({q.to_str()})*{spow}"
        elif neg:
            body = f"({q.to_str()})"
        else:
            body = q.to_str()
        pieces.append((neg, body))
    first_neg, first_body = pieces[0]
    out = ("-" if first_neg else "") + first_body
    for neg, body in pieces[1:]:
        out += (" - " if neg else " + ") + body
    return out
