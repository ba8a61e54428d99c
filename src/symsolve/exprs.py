"""Tiny arithmetic grammar for base-table template strings.

Two evaluation contexts share one parser:

  eval_poly(text, params)  -> Poly           coefficient templates; x allowed,
                                              sqrt forbidden, division only by
                                              constants
  eval_value(text, params) -> Fraction|NFElem  local-data templates; x
                                              forbidden, one quadratic radical
                                              allowed (sqrt of a rational)

Grammar: expr := term (('+'|'-') term)*;  term := unary (('*'|'/') unary)*;
unary := ('-'|'+') unary | power;  power := atom ('^' integer)?;
atom := integer | name | 'sqrt' '(' expr ')' | '(' expr ')'.
Multiplication is always explicit in templates.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Tuple, Union

from .fieldext import NumberField, squarefree_core
from .poly import P, Poly

__all__ = ["ExprError", "eval_poly", "eval_value", "eval_fraction",
           "template_names"]


class ExprError(ValueError):
    pass


def _tokenize(text: str):
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("num", int(text[i:j])))
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
            continue
        if ch in "+-*/^()":
            toks.append((ch, ch))
            i += 1
            continue
        raise ExprError(f"unexpected character {ch!r} at {i} in {text!r}")
    toks.append(("end", None))
    return toks


@dataclass
class _Parser:
    toks: list
    pos: int = 0

    def peek(self):
        return self.toks[self.pos][0]

    def next(self):
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expr(self):
        node = self.term()
        while self.peek() in "+-":
            op, _ = self.next()
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.unary()
        while self.peek() in "*/":
            op, _ = self.next()
            node = (op, node, self.unary())
        return node

    def unary(self):
        if self.peek() in "+-":
            op, _ = self.next()
            node = self.unary()
            return node if op == "+" else ("neg", node)
        return self.power()

    def power(self):
        node = self.atom()
        if self.peek() == "^":
            self.next()
            neg = False
            if self.peek() == "-":
                self.next()
                neg = True
            kind, val = self.next()
            if kind != "num":
                raise ExprError("integer exponent expected after '^'")
            node = ("pow", node, -val if neg else val)
        return node

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val == "sqrt":
                if self.next()[0] != "(":
                    raise ExprError("sqrt needs parentheses")
                inner = self.expr()
                if self.next()[0] != ")":
                    raise ExprError("unbalanced sqrt parentheses")
                return ("sqrt", inner)
            return ("var", val)
        if kind == "(":
            inner = self.expr()
            if self.next()[0] != ")":
                raise ExprError("unbalanced parentheses")
            return inner
        if kind == "end":
            raise ExprError("unexpected end of input")
        raise ExprError(f"unexpected token {val!r}")


def _parse(text: str):
    p = _Parser(_tokenize(text))
    node = p.expr()
    if p.peek() != "end":
        raise ExprError(f"trailing input in {text!r}")
    return node


def template_names(text: str) -> set:
    """Symbols text refers to, with 'sqrt' when it takes a root; raises
    ExprError when text does not parse."""
    names = set()
    todo = [_parse(text)]
    while todo:
        node = todo.pop()
        kind = node[0]
        if kind == "var":
            names.add(node[1])
        elif kind == "sqrt":
            names.add("sqrt")
            todo.append(node[1])
        elif kind in ("neg", "pow"):
            todo.append(node[1])
        elif kind != "num":
            todo.extend(node[1:])
    return names


# -- polynomial context -------------------------------------------------------

def _poly_eval(node, params):
    kind = node[0]
    if kind == "num":
        return Fraction(node[1])
    if kind == "var":
        name = node[1]
        if name == "x":
            return P(0, 1)
        if name in params:
            return Fraction(params[name])
        raise ExprError(f"unknown symbol {name!r}")
    if kind == "neg":
        return -_poly_eval(node[1], params)
    if kind in "+-*":
        lhs = _poly_eval(node[1], params)
        rhs = _poly_eval(node[2], params)
        return lhs + rhs if kind == "+" else lhs - rhs if kind == "-" else lhs * rhs
    if kind == "/":
        lhs = _poly_eval(node[1], params)
        rhs = _poly_eval(node[2], params)
        if isinstance(rhs, Poly):
            if rhs.degree > 0:
                raise ExprError("division by a non-constant polynomial")
            rhs = rhs[0]
        if rhs == 0:
            raise ExprError("division by zero")
        return lhs * Fraction(1, 1) / rhs if isinstance(lhs, Fraction) else lhs * (1 / Fraction(rhs))
    if kind == "pow":
        base = _poly_eval(node[1], params)
        e = node[2]
        if e < 0:
            if isinstance(base, Poly) and base.degree > 0:
                raise ExprError("negative power of a polynomial")
            b = base[0] if isinstance(base, Poly) else base
            if b == 0:
                raise ExprError("zero to a negative power")
            return Fraction(1) / Fraction(b) ** (-e)
        return base ** e
    if kind == "sqrt":
        raise ExprError("sqrt is not allowed in polynomial templates")
    raise AssertionError(kind)


def eval_poly(text: str, params: Mapping[str, Fraction]) -> Poly:
    v = _poly_eval(_parse(text), params)
    return v if isinstance(v, Poly) else Poly.const(v)


def eval_fraction(text: str, params: Mapping[str, Fraction]) -> Fraction:
    v = _poly_eval(_parse(text), params)
    if isinstance(v, Poly):
        if v.degree > 0:
            raise ExprError("x not allowed here")
        v = v[0]
    return Fraction(v)


# -- quadratic-value context --------------------------------------------------

# value = rat + irr * sqrt(core), core squarefree int (core == 1 <=> rational)
QVal = Tuple[Fraction, Fraction, int]


def _q(r, s=Fraction(0), core=1) -> QVal:
    if s == 0:
        core = 1
    return (Fraction(r), Fraction(s), core)


def _q_join(a: QVal, b: QVal) -> int:
    if a[2] == 1:
        return b[2]
    if b[2] == 1 or a[2] == b[2]:
        return a[2]
    raise ExprError("incompatible radicals in one expression")


def _q_add(a: QVal, b: QVal) -> QVal:
    core = _q_join(a, b)
    return _q(a[0] + b[0], a[1] + b[1], core)


def _q_mul(a: QVal, b: QVal) -> QVal:
    core = _q_join(a, b)
    return _q(a[0] * b[0] + a[1] * b[1] * core,
              a[0] * b[1] + a[1] * b[0], core)


def _q_inv(a: QVal) -> QVal:
    nrm = a[0] * a[0] - a[1] * a[1] * a[2]
    if nrm == 0:
        raise ExprError("division by zero value")
    return _q(a[0] / nrm, -a[1] / nrm, a[2])


def _value_eval(node, params) -> QVal:
    kind = node[0]
    if kind == "num":
        return _q(node[1])
    if kind == "var":
        name = node[1]
        if name == "x":
            raise ExprError("x is not allowed in local-data templates")
        if name in params:
            return _q(params[name])
        raise ExprError(f"unknown symbol {name!r}")
    if kind == "neg":
        v = _value_eval(node[1], params)
        return _q(-v[0], -v[1], v[2])
    if kind == "+":
        return _q_add(_value_eval(node[1], params), _value_eval(node[2], params))
    if kind == "-":
        rhs = _value_eval(node[2], params)
        return _q_add(_value_eval(node[1], params), _q(-rhs[0], -rhs[1], rhs[2]))
    if kind == "*":
        return _q_mul(_value_eval(node[1], params), _value_eval(node[2], params))
    if kind == "/":
        return _q_mul(_value_eval(node[1], params),
                      _q_inv(_value_eval(node[2], params)))
    if kind == "pow":
        base = _value_eval(node[1], params)
        e = node[2]
        if e < 0:
            base = _q_inv(base)
            e = -e
        out = _q(1)
        for _ in range(e):
            out = _q_mul(out, base)
        return out
    if kind == "sqrt":
        v = _value_eval(node[1], params)
        if v[1] != 0:
            raise ExprError("nested radicals are not supported")
        outside, core = squarefree_core(v[0])
        if core == 1:
            return _q(outside)
        return _q(0, outside, core)
    raise AssertionError(kind)


def eval_value(text: str, params: Mapping[str, Fraction]
               ) -> Union[Fraction, "object"]:
    """Evaluate to a Fraction or an NFElem in Q(sqrt(core))."""
    r, s, core = _value_eval(_parse(text), params)
    if s == 0:
        return r
    field = NumberField.quadratic(core)
    return field.element([r, s])
