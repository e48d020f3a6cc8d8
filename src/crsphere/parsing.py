"""Textual polynomial expressions over Gaussian rationals.

Grammar (whitespace insignificant, no implicit multiplication)::

    expr     := '-'? term (('+'|'-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := rational | 'i' | var | '(' expr ')'
    rational := uint ('/' uint)?

``parse_series`` evaluates the text while it parses it: one recursive
descent over the tokens builds a ``TruncSeries`` over a declared variable
list, every value known to the working order and held in the series'
cleared form.  Multiplying by a value of one term shifts and scales the
other side, so a term of numbers, ``i`` and variable powers stays one
numerator entry; only two values of several terms are convolved, and the
terms of a sum are added into one map.  A character outside the grammar
is reported before anything else; every other error is raised where the
descent meets it, so errors come in text order, each with its offset in
the text.  ``render_series`` produces canonical text that parses back to
the same series (the round-trip property).
"""

from __future__ import annotations

import re
from fractions import Fraction
from operator import add
from typing import Optional, Sequence

from .errors import ExprSyntaxError
from .rational import GaussRat
from .series import TruncSeries, _combine, _convolve, _nonzero

MAX_EXPONENT = 9999
MAX_DEPTH = 100  # parenthesis nesting; keeps the descent off the recursion limit
# size of any numerator or denominator while evaluating, in the cleared form;
# keeps input far below the 4,300-digit limit of rendering an int
MAX_COEFF_BITS = 4096

_TOKEN = re.compile(r"(\d+)|([A-Za-z_][A-Za-z_0-9]*)|([()+\-*/^])|(\S)")


def _tokens(text: str) -> list:
    """``(kind, value, pos)`` triples ending in an ``eof`` one; ``kind`` is
    ``int``, ``name`` or the operator character itself."""
    items = []
    for m in _TOKEN.finditer(text):
        value = m.group()
        group = m.lastindex
        if group == 4:
            raise ExprSyntaxError(f"unexpected character {value!r}", m.start())
        items.append(("int" if group == 1 else "name" if group == 2 else value, value, m.start()))
    items.append(("eof", "", len(text)))
    return items


def _bounded(f: TruncSeries) -> TruncSeries:
    if f.bits() > MAX_COEFF_BITS:
        raise ValueError(f"a coefficient of the input exceeds {MAX_COEFF_BITS} bits")
    return f


def _times(f: TruncSeries, g: TruncSeries, order: int) -> TruncSeries:
    """``f * g`` below ``order``: when one side has a single term, the other
    is shifted and scaled by it; two sides of several terms are convolved."""
    if len(f._num) == 1:
        f, g = g, f
    if len(g._num) == 1:
        ((shift, (a, b)),) = g._num.items()
        d = sum(shift)
        num = {
            tuple(map(add, mono, shift)): (re * a - im * b, re * b + im * a)
            for mono, (re, im) in f._num.items()
            if sum(mono) + d < order
        }
    else:
        num = _nonzero(_convolve(f._num, g._num, order))
    return TruncSeries._reduced(f.vars, order, f._den * g._den, num)


class _Descent:
    """The evaluating recursive descent over the tokens of one text.

    Each method consumes its rule's tokens and returns the rule's value;
    every value met is checked against ``MAX_COEFF_BITS``, except a
    variable, ``i`` and a power's base passed through unchanged.
    """

    def __init__(self, text: str, vars: tuple, order: int):
        self.tokens = _tokens(text)
        self.zero = TruncSeries.zero(vars, order)  # validates the space and order
        self.i = 0
        self.depth = 0
        self.vars = vars
        self.order = order

    def constant(self, re: int, im: int, den: int) -> TruncSeries:
        if not (re or im) or not self.order:
            return self.zero
        return TruncSeries._reduced(self.vars, self.order, den, {(0,) * len(self.vars): (re, im)})

    def expr(self) -> TruncSeries:
        tokens = self.tokens
        negated = tokens[self.i][0] == "-"
        if negated:
            self.i += 1
        parts = [(self.term(), -1 if negated else 1)]
        while True:
            kind = tokens[self.i][0]
            if kind == "+" or kind == "-":
                self.i += 1
                parts.append((self.term(), -1 if kind == "-" else 1))
            elif len(parts) == 1 and not negated:
                return parts[0][0]
            else:
                return _bounded(_combine(parts))

    def term(self) -> TruncSeries:
        value = self.factor()
        while self.tokens[self.i][0] == "*":
            self.i += 1
            value = _bounded(_times(value, self.factor(), self.order))
        return value

    def factor(self) -> TruncSeries:
        base = self.base()
        if self.tokens[self.i][0] != "^":
            return base
        kind, value, pos = self.tokens[self.i + 1]
        self.i += 2
        if kind != "int":
            raise ExprSyntaxError("exponent must be an unsigned integer", pos)
        exponent = int(value)
        if exponent > MAX_EXPONENT:
            raise ExprSyntaxError(f"exponent {exponent} exceeds {MAX_EXPONENT}", pos)
        return self.power(base, exponent)

    def base(self) -> TruncSeries:
        kind, value, pos = self.tokens[self.i]
        self.i += 1
        if kind == "int":
            num = int(value)
            den = 1
            if self.tokens[self.i][0] == "/":
                kind, value, pos = self.tokens[self.i + 1]
                self.i += 2
                den = int(value) if kind == "int" else 0
                if not den:
                    raise ExprSyntaxError("denominator must be a positive integer", pos)
            return _bounded(self.constant(num, 0, den))
        if kind == "name":
            if value == "i":
                return self.constant(0, 1, 1)
            if value not in self.vars:
                raise ExprSyntaxError(f"undeclared variable {value!r}", pos)
            if self.order < 2:
                return self.zero
            mono = tuple(int(v == value) for v in self.vars)
            return TruncSeries._make(self.vars, self.order, 1, {mono: (1, 0)})
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise ExprSyntaxError(f"parentheses nested deeper than {MAX_DEPTH}", pos)
            value = self.expr()
            kind, _, pos = self.tokens[self.i]
            self.i += 1
            if kind != ")":
                raise ExprSyntaxError("expected ')'", pos)
            self.depth -= 1
            return value
        raise ExprSyntaxError("expected a number, variable, 'i' or '('", pos)

    def power(self, base: TruncSeries, n: int) -> TruncSeries:
        """``base^n`` by repeated squaring, zero at once when its
        valuation reaches the order."""
        if n == 0:
            return self.constant(1, 0, 1)
        if base.valuation() * n >= self.order:
            return self.zero
        result = None
        while True:
            if n & 1:
                result = base if result is None else _bounded(_times(result, base, self.order))
            n >>= 1
            if not n:
                return result
            base = _bounded(_times(base, base, self.order))


def parse_series(text: str, vars: Sequence[str], order: int) -> TruncSeries:
    """Parse expression text into an exact series truncated at ``order``.

    Every numerator and the denominator of the result, and of each
    intermediate value, has at most ``MAX_COEFF_BITS`` bits; larger input
    raises ``ValueError``.  Malformed text raises ``ExprSyntaxError`` with
    the offset of the first error in the text.
    """
    descent = _Descent(text, tuple(vars), order)
    value = descent.expr()
    kind, rest, pos = descent.tokens[descent.i]
    if kind != "eof":
        raise ExprSyntaxError(f"unexpected {rest!r}", pos)
    return value


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
