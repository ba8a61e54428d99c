"""Text format for difference operators and base-table templates.

One grammar serves both: polynomial expressions in `x`, the shift symbol
`S` and named parameters, over Q, with square roots of rationals.

    expr     := term (('+'|'-') term)*
    term     := factor (('*' | '/' | adjacency) factor)*
    factor   := atom ['^' exponent]                      ('**' is '^')
    exponent := ['+'|'-'] integer | '(' ['+'|'-'] integer ')'
    atom     := integer | name | 'sqrt' '(' expr ')' | '(' expr ')'
              | ('+'|'-') factor

Adjacency multiplies ("2x", "4(x+2)", "(x+1)S"), and a word made only of
the letters x and S reads letter by letter ("xS" is x*S).  Values are the
package's algebra: Fraction for numbers and parameters, NFElem for the
square root of a rational (one quadratic field per expression; a value
that turns out rational is a Fraction again), and Operator for x and S,
with S*f(x) = f(x+1)*S.  Square roots do not mix with x or S.  Division
is by order-0 scalars only and multiplies by the reciprocal on the left.

parse_operator reads an operator; eval_poly, eval_fraction and eval_value
evaluate table templates under a parameter assignment.  print_operator
emits the canonical form, and parse(print(L)) == L.canonical() exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .fieldext import NFElem, demote, value_sqrt
from .ore import Operator
from .poly import Poly

__all__ = ["ExprError", "parse_operator", "print_operator", "eval_poly",
           "eval_fraction", "eval_value", "template_names"]


class ExprError(ValueError):
    """Malformed or ill-typed expression; pos is the offending offset."""

    def __init__(self, msg: str, pos: int):
        super().__init__(f"{msg} (at position {pos})")
        self.pos = pos


# -- tokenizer ------------------------------------------------------------


def _tokenize(text: str):
    """(kind, value, position) triples; kind is num, name, op or end."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            if j < n and text[j] == ".":
                raise ExprError("decimal literals are not exact; use fractions", i)
            toks.append(("num", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if len(word) > 1 and all(c in "xS" for c in word):
                toks.extend(("name", c, i + k) for k, c in enumerate(word))
            else:
                toks.append(("name", word, i))
            i = j
            continue
        if text.startswith("**", i):
            toks.append(("op", "^", i))
            i += 2
            continue
        if ch in "+-*/^()":
            toks.append(("op", ch, i))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    toks.append(("end", None, n))
    return toks


# -- parser: text -> AST ----------------------------------------------------
#
# Nodes are tuples (kind, pos, ...): ("num", pos, int), ("name", pos, str),
# ("sqrt", pos, arg), ("neg", pos, arg), ("pow", pos, base, int) and
# (op, pos, lhs, rhs) for op in + - * /.


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.k = 0

    def peek(self):
        return self.toks[self.k]

    def next(self):
        t = self.toks[self.k]
        self.k += 1
        return t

    def at(self, ops: str) -> bool:
        kind, val, _ = self.toks[self.k]
        return kind == "op" and val in ops

    def expect(self, op: str) -> None:
        kind, val, pos = self.next()
        if kind != "op" or val != op:
            raise ExprError(f"expected {op!r}", pos)

    def parse(self):
        node = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ExprError("trailing input", pos)
        return node

    def expr(self):
        node = self.term()
        while self.at("+-"):
            _, op, pos = self.next()
            node = (op, pos, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while True:
            kind, val, pos = self.peek()
            if kind == "op" and val in "*/":
                self.next()
                node = (val, pos, node, self.factor())
            elif kind in ("num", "name") or (kind == "op" and val == "("):
                node = ("*", pos, node, self.factor())
            else:
                return node

    def factor(self):
        node = self.atom()
        if self.at("^"):
            _, _, pos = self.next()
            node = ("pow", pos, node, self.exponent())
        return node

    def exponent(self) -> int:
        paren = self.at("(")
        if paren:
            self.next()
        sign = -1 if self.at("-") else 1
        if self.at("+-"):
            self.next()
        kind, val, pos = self.next()
        if kind != "num":
            raise ExprError("integer exponent expected", pos)
        if paren:
            self.expect(")")
        return sign * val

    def atom(self):
        kind, val, pos = self.next()
        if kind == "num":
            return ("num", pos, val)
        if kind == "name":
            if val != "sqrt":
                return ("name", pos, val)
            self.expect("(")
            node = self.expr()
            self.expect(")")
            return ("sqrt", pos, node)
        if kind == "op" and val == "(":
            node = self.expr()
            self.expect(")")
            return node
        if kind == "op" and val in "+-":
            node = self.factor()
            return ("neg", pos, node) if val == "-" else node
        if kind == "end":
            raise ExprError("unexpected end of input", pos)
        raise ExprError("expression expected", pos)


def parse_template(text: str) -> tuple:
    """The syntax tree of text, which the ``eval_*`` functions take in
    place of the text; raises ExprError when text does not parse."""
    return _Parser(text).parse()


def template_names(text: str) -> set:
    """Symbols text refers to, with 'sqrt' when it takes a root; raises
    ExprError when text does not parse."""
    names = set()
    todo = [parse_template(text)]
    while todo:
        node = todo.pop()
        kind = node[0]
        if kind == "name":
            names.add(node[2])
        elif kind != "num":
            if kind == "sqrt":
                names.add("sqrt")
            todo.extend(c for c in node[2:] if isinstance(c, tuple))
    return names


# -- evaluator: AST -> Fraction | NFElem | Operator ------------------------------

_X = Operator((Poly((Fraction(0), Fraction(1))),))
_S = Operator.tau()

Value = Union[Fraction, NFElem, Operator]


def _eval(node, params: Mapping[str, Fraction]) -> Value:
    kind, pos = node[0], node[1]
    if kind == "num":
        return Fraction(node[2])
    if kind == "name":
        name = node[2]
        if name == "x":
            return _X
        if name == "S":
            return _S
        if name in params:
            return Fraction(params[name])
        raise ExprError(f"unknown symbol {name!r}", pos)
    if kind == "neg":
        return -_eval(node[2], params)
    if kind == "pow":
        return _power(_eval(node[2], params), node[3], pos)
    if kind == "sqrt":
        v = _eval(node[2], params)
        if isinstance(v, NFElem):
            raise ExprError("nested radicals are not supported", pos)
        if isinstance(v, Operator):
            raise ExprError("sqrt does not mix with x or S", pos)
        return value_sqrt(v)
    return _arith(kind, _eval(node[2], params), _eval(node[3], params), pos)


def _arith(op: str, a: Value, b: Value, pos: int) -> Value:
    lifted = isinstance(a, Operator) or isinstance(b, Operator)
    if lifted and (isinstance(a, NFElem) or isinstance(b, NFElem)):
        raise ExprError("sqrt does not mix with x or S", pos)
    if isinstance(a, NFElem) and isinstance(b, NFElem) and a.field != b.field:
        raise ExprError("incompatible radicals in one expression", pos)
    if op == "+":
        return demote(a + b)
    if op == "-":
        return demote(a - b)
    if op == "*":
        return demote(a * b)
    if not b:
        raise ExprError("division by zero", pos)
    if not lifted:
        return demote(a / b)
    if isinstance(b, Operator):
        if b.order != 0:
            raise ExprError("division only by scalar (order-0) expressions", pos)
        b = b.coeff(0)
    if not isinstance(a, Operator):
        a = Operator((a,))
    return a.scalar_mul(1 / b)


def _power(base: Value, e: int, pos: int) -> Value:
    if e >= 0:
        return demote(base ** e)
    if isinstance(base, Operator):
        if base.order != 0:
            raise ExprError("negative power of a non-scalar", pos)
        return Operator((base.coeff(0) ** e,))
    if not base:
        raise ExprError("zero to a negative power", pos)
    return demote(base ** e)


def _evaluate(template, params: Mapping[str, Fraction]) -> Value:
    tree = parse_template(template) if isinstance(template, str) else template
    return _eval(tree, params)


def _constant(v: Value) -> Union[Fraction, NFElem]:
    """v as a number; an Operator only when it is a rational constant."""
    if not isinstance(v, Operator):
        return v
    if v.order > 0 or not v.coeff(0).is_constant():
        raise ExprError("x and S are not allowed here", 0)
    return Fraction(v.coeff(0).num[0])


def parse_operator(text: str, require_normal: bool = True) -> Operator:
    """Parse an operator; with require_normal, reject a_0 = 0 or L = 0."""
    L = _evaluate(text, {})
    if isinstance(L, NFElem):
        raise ExprError("operator coefficients must be rational", 0)
    if not isinstance(L, Operator):
        L = Operator((L,))
    if require_normal and not L.is_normal():
        raise ValueError("not normal (a_0 = 0)")
    return L


def eval_poly(text, params: Mapping[str, Fraction]) -> Poly:
    """A polynomial in x over Q, from a template's text or its
    ``parse_template`` tree."""
    v = _evaluate(text, params)
    if isinstance(v, NFElem):
        raise ExprError("sqrt is not allowed in polynomial templates", 0)
    if not isinstance(v, Operator):
        return Poly.const(v)
    if v.order > 0 or not v.coeff(0).is_polynomial():
        raise ExprError("expected a polynomial in x", 0)
    return v.coeff(0).num


def eval_fraction(text, params: Mapping[str, Fraction]) -> Fraction:
    v = _constant(_evaluate(text, params))
    if isinstance(v, NFElem):
        raise ExprError("expected a rational number", 0)
    return v


def eval_value(text, params: Mapping[str, Fraction]) -> Union[Fraction, NFElem]:
    """A Fraction, or an NFElem in Q(sqrt(core)) when irrational."""
    return _constant(_evaluate(text, params))


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
