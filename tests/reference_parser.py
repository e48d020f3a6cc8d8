"""The tokenize, AST and evaluate parser that ``crsphere.parsing`` used
before it evaluated during the descent; the reference for its tests.

The code below is kept as it was, with the bounds imported from
``crsphere.parsing`` so that both parsers enforce the same limits.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from crsphere.errors import ExprSyntaxError
from crsphere.parsing import MAX_COEFF_BITS, MAX_DEPTH, MAX_EXPONENT
from crsphere.rational import GaussRat
from crsphere.series import TruncSeries

_TOKEN = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^])")


# -- AST ---------------------------------------------------------------------
# Sums and products are flat, so a long chain of terms or factors costs no
# recursion depth; only parentheses nest, and their depth is bounded.

@dataclass(frozen=True)
class Number:
    value: Fraction


@dataclass(frozen=True)
class ImaginaryUnit:
    pass


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Sum:
    terms: tuple  # (negated, node) pairs, folded left to right


@dataclass(frozen=True)
class Product:
    factors: tuple  # folded left to right


@dataclass(frozen=True)
class Pow:
    base: "Node"
    exponent: int


Node = Union[Number, ImaginaryUnit, Variable, Sum, Product, Pow]


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.items = []  # (kind, value, pos)
        pos = 0
        while pos < len(text):
            if text[pos].isspace():
                pos += 1
                continue
            m = _TOKEN.match(text, pos)
            if m is None:
                raise ExprSyntaxError(f"unexpected character {text[pos]!r}", pos)
            if m.group(1) is not None:
                self.items.append(("int", m.group(1), pos))
            elif m.group(2) is not None:
                self.items.append(("name", m.group(2), pos))
            else:
                self.items.append(("op", m.group(3), pos))
            pos = m.end()
        self.i = 0
        self.depth = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", len(self.text))

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok


def parse_expr(text: str) -> Node:
    """Parse expression text into an AST; raises ExprSyntaxError with position."""
    toks = _Tokens(text)
    node = _expr(toks)
    kind, value, pos = toks.peek()
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected {value!r}", pos)
    return node


def _expr(toks: _Tokens) -> Node:
    kind, value, _ = toks.peek()
    negated = kind == "op" and value == "-"
    if negated:
        toks.next()
    terms = [(negated, _term(toks))]
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value in "+-":
            toks.next()
            terms.append((value == "-", _term(toks)))
        elif len(terms) == 1 and not negated:
            return terms[0][1]
        else:
            return Sum(tuple(terms))


def _term(toks: _Tokens) -> Node:
    factors = [_factor(toks)]
    while True:
        kind, value, _ = toks.peek()
        if kind == "op" and value == "*":
            toks.next()
            factors.append(_factor(toks))
        elif len(factors) == 1:
            return factors[0]
        else:
            return Product(tuple(factors))


def _factor(toks: _Tokens) -> Node:
    node = _base(toks)
    kind, value, pos = toks.peek()
    if kind == "op" and value == "^":
        toks.next()
        kind, value, pos = toks.next()
        if kind != "int":
            raise ExprSyntaxError("exponent must be an unsigned integer", pos)
        exponent = int(value)
        if exponent > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent {exponent} exceeds {MAX_EXPONENT}", pos)
        return Pow(node, exponent)
    return node


def _base(toks: _Tokens) -> Node:
    kind, value, pos = toks.next()
    if kind == "int":
        num = int(value)
        kind2, value2, _ = toks.peek()
        if kind2 == "op" and value2 == "/":
            toks.next()
            kind3, value3, pos3 = toks.next()
            if kind3 != "int" or int(value3) == 0:
                raise ExprSyntaxError("denominator must be a positive integer", pos3)
            return Number(Fraction(num, int(value3)))
        return Number(Fraction(num))
    if kind == "name":
        if value == "i":
            return ImaginaryUnit()
        return Variable(value)
    if kind == "op" and value == "(":
        toks.depth += 1
        if toks.depth > MAX_DEPTH:
            raise ExprSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
        node = _expr(toks)
        kind2, value2, pos2 = toks.next()
        if not (kind2 == "op" and value2 == ")"):
            raise ExprSyntaxError("expected ')'", pos2)
        toks.depth -= 1
        return node
    raise ExprSyntaxError("expected a number, variable, 'i' or '('", pos)


# -- evaluation -----------------------------------------------------------------


def _bounded(f: TruncSeries) -> TruncSeries:
    if f.bits() > MAX_COEFF_BITS:
        raise ValueError(f"a coefficient of the input exceeds {MAX_COEFF_BITS} bits")
    return f


def _power(base: TruncSeries, n: int, order: int) -> TruncSeries:
    """``base^n`` at ``order`` by repeated squaring, each step truncated."""
    if n == 0:
        return TruncSeries.one(base.vars, order)
    if base.valuation() * n >= order:
        return TruncSeries.zero(base.vars, order)
    result = None
    while True:
        if n & 1:
            result = base if result is None else _bounded((result * base).truncate(order))
        n >>= 1
        if not n:
            return result
        base = _bounded((base * base).truncate(order))


def eval_ast(node: Node, vars: Sequence[str], order: int) -> TruncSeries:
    """Evaluate at ``order``: every node is known to at least ``order``, so
    each product step is truncated to it."""
    vars = tuple(vars)
    if isinstance(node, Number):
        return _bounded(TruncSeries.constant(GaussRat.of(node.value), vars, order))
    if isinstance(node, ImaginaryUnit):
        return TruncSeries.constant(GaussRat.i(), vars, order)
    if isinstance(node, Variable):
        if node.name not in vars:
            raise ExprSyntaxError(f"undeclared variable {node.name!r}", 0)
        return TruncSeries.variable(node.name, vars, order)
    if isinstance(node, Sum):
        total = None
        for negated, child in node.terms:
            value = eval_ast(child, vars, order)
            value = -value if negated else value
            total = value if total is None else total + value
        return _bounded(total)
    if isinstance(node, Product):
        result = eval_ast(node.factors[0], vars, order)
        for child in node.factors[1:]:
            result = _bounded((result * eval_ast(child, vars, order)).truncate(order))
        return result
    if isinstance(node, Pow):
        return _power(eval_ast(node.base, vars, order), node.exponent, order)
    raise TypeError(f"unknown AST node {node!r}")


def parse_series(text: str, vars: Sequence[str], order: int) -> TruncSeries:
    """Parse expression text into an exact series truncated at ``order``.

    Every numerator and the denominator of the result, and of each
    intermediate value, has at most ``MAX_COEFF_BITS`` bits; larger input
    raises ``ValueError``.
    """
    return eval_ast(parse_expr(text), vars, order).truncate(order)
