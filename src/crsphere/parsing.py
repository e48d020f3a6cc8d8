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
cleared form.  A term of numbers, ``i`` and variable powers becomes one
numerator entry with no series product: its key, numerator and
denominator are multiplied as ints, and checked against ``MAX_COEFF_BITS``
at the factor where a running bound on their bits passes it.  Other
factors go through the series' product; a sum is added into one map.
Errors come in text order, each with its offset in the text: a character
outside the grammar first, then each error where the descent meets it.
``render_series`` produces canonical text that parses back to the same
series (the round-trip property).
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Optional, Sequence

from .errors import ExprSyntaxError
from .rational import GaussRat
from .series import _BITS, TruncSeries, _combine, _key, _product

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


class _Descent:
    """The evaluating recursive descent over the tokens of one text.

    Each method consumes its rule's tokens and returns the rule's value;
    each literal, sum, power and product with a series is checked against
    ``MAX_COEFF_BITS``, and a term's monomial as ``term`` describes.
    """

    def __init__(self, text: str, vars: tuple, order: int):
        self.tokens = _tokens(text)
        self.zero = TruncSeries.zero(vars, order)  # validates the space and order
        self.i = 0
        self.depth = 0
        self.vars = vars
        self.order = order
        self.top = order << _BITS * len(vars)  # the least key of degree ``order``
        self.units = {v: _key([int(u == v) for u in vars]) for v in vars}

    def constant(self, re: int, im: int, den: int) -> TruncSeries:
        if not (re or im) or not self.order:
            return self.zero
        return TruncSeries._reduced(self.vars, self.order, den, {0: (re, im)})  # 0 keys the origin

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
        """A product.  Numbers, ``i`` and variable powers multiply one monomial,
        zero from the order on; it is folded into ``value``, and the product
        checked, before any other factor and when ``bound`` passes the limit."""
        value = None  # the product of the factors before the monomial; None for 1
        key, re, im, den, bound = 0, 1, 0, 1, 0
        while True:
            f = self.factor()
            if type(f) is tuple:
                k, r, i, d, bits = f
                key, den, bound = key + k, den * d, bound + bits
                re, im = (re * r - im * i, re * i + im * r) if key < self.top else (0, 0)
            if type(f) is not tuple or bound > MAX_COEFF_BITS:  # fold the monomial into value
                if value is not None or (key, re, im) != (0, den, 0):
                    value = _bounded(self.times(value, key, re, im, den))
                if type(f) is not tuple:
                    value = f if value is None else _bounded(_product(value, f, self.order))
                key, re, im, den, bound = 0, 1, 0, 1, MAX_COEFF_BITS
            if self.tokens[self.i][0] != "*":
                return self.times(value, key, re, im, den)
            self.i += 1

    def times(self, value: Optional[TruncSeries], key: int, re: int, im: int, den: int):
        """``value`` (``None`` for 1) times the monomial ``(re + im*i)/den`` at ``key``."""
        if value is not None and (key, re, im) == (0, den, 0):
            return value
        mono = TruncSeries._reduced(self.vars, self.order, den, {key: (re, im)} if re or im else {})
        return mono if value is None else _product(value, mono, self.order)

    def factor(self):
        """A series, or a monomial factor ``(key, re, im, den, bits)``, where
        ``bits`` bounds how many bits it adds to a product."""
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
        if type(base) is tuple:
            if base[0]:  # a variable: zero once the power reaches the order
                return (base[0] * exponent, 1, 0, 1, 0) if exponent < self.order else (0, 0, 0, 1, 0)
            base = self.constant(*base[1:4])  # a number or i
        return self.power(base, exponent)

    def base(self):
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
            if (bits := max(num, den).bit_length()) > MAX_COEFF_BITS:  # checked once reduced
                _bounded(self.constant(num, 0, den))
            return 0, num, 0, den, bits
        if kind == "name":
            if value == "i":
                return 0, 0, 1, 1, 0
            if value not in self.vars:
                raise ExprSyntaxError(f"undeclared variable {value!r}", pos)
            return self.units[value], 1, 0, 1, 0
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
                result = base if result is None else _bounded(_product(result, base, self.order))
            n >>= 1
            if not n:
                return result
            base = _bounded(_product(base, base, self.order))


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
