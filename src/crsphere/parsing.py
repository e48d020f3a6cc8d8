"""Textual polynomial expressions over Gaussian rationals.

Grammar (whitespace insignificant, no implicit multiplication)::

    expr     := '-'? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | 'i' | var | '(' expr ')'
    rational := uint ('/' uint)?

Inputs are parsed into a small AST and then evaluated into a
``TruncSeries`` over a declared variable list at a given order.
``render_series`` produces canonical text that parses back to the same
series (the round-trip property).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import ExprSyntaxError
from .rational import GaussRat
from .series import TruncSeries

MAX_EXPONENT = 9999
MAX_DEPTH = 100  # parenthesis nesting; keeps parse and evaluation off the recursion limit
# size of any numerator or denominator while evaluating, in the cleared form;
# keeps input far below the 4,300-digit limit of rendering an int
MAX_COEFF_BITS = 4096

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^])")


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


# -- rendering ------------------------------------------------------------------


def _render_frac(q: Fraction) -> str:
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _render_mono(mono, vars) -> str:
    parts = []
    for v, e in zip(vars, mono):
        if e == 0:
            continue
        parts.append(v if e == 1 else f"{v}^{e}")
    return "*".join(parts)


def _render_coeff(c: GaussRat) -> Optional[str]:
    """Coefficient text without sign handling, or None for a plain 1."""
    if c.im == 0:
        if c.re == 1:
            return None
        return _render_frac(c.re)
    if c.re == 0:
        if c.im == 1:
            return "i"
        return f"{_render_frac(c.im)}*i"
    # mixed coefficient: parenthesized inner expression
    im = c.im
    sign = "+" if im > 0 else "-"
    im_abs = -im if im < 0 else im
    im_txt = "i" if im_abs == 1 else f"{_render_frac(im_abs)}*i"
    return f"({_render_frac(c.re)} {sign} {im_txt})"


def render_series(f: TruncSeries) -> str:
    """Canonical text form: graded-lex term order, explicit '*', re-parseable."""
    if f.is_zero():
        return "0"
    chunks = []
    for mono, coeff in f.sorted_terms():
        negate = coeff.im == 0 and coeff.re < 0 or coeff.re == 0 and coeff.im < 0
        c = -coeff if negate else coeff
        mono_txt = _render_mono(mono, f.vars)
        coeff_txt = _render_coeff(c)
        if coeff_txt is None:
            body = mono_txt if mono_txt else "1"
        elif mono_txt:
            body = f"{coeff_txt}*{mono_txt}"
        else:
            body = coeff_txt
        chunks.append(("-" if negate else "+", body))
    sign, body = chunks[0]
    text = f"-{body}" if sign == "-" else body
    for sign, body in chunks[1:]:
        text += f" {sign} {body}"
    return text
