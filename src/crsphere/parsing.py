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
cleared form.  A term of numbers, ``i``, variable powers and one-term
groups becomes one monomial with no series: its key, numerator and
denominator are multiplied as ints and checked against ``MAX_COEFF_BITS``
where a running bound on their bits passes it.  Other factors go through
the series' product.  A sum, parenthesised or the whole text, adds its
terms straight into one numerator map over the lcm of their denominators,
one series in all.  Errors come in text order, each with its offset in the
text, found again from the text: a character outside the grammar first,
then each error where the descent meets it.
``render_series`` produces canonical text that parses back to the same
series (the round-trip property).
"""

from __future__ import annotations

import re
from collections.abc import Sequence
from fractions import Fraction
from math import gcd

from .errors import ExprSyntaxError
from .rational import GaussRat
from .series import _BITS, TruncSeries, _added, _dot, _key, _space

MAX_EXPONENT = 9999
MAX_DEPTH = 100  # parenthesis nesting; keeps the descent off the recursion limit
# size of any numerator or denominator while evaluating, in the cleared form;
# keeps input far below the 4,300-digit limit of rendering an int
MAX_COEFF_BITS = 4096
# the digits of the largest int of MAX_COEFF_BITS bits: a literal with more,
# leading zeros aside, is over the bound and is not converted
MAX_LITERAL_DIGITS = len(str((1 << MAX_COEFF_BITS) - 1))
_TOO_BIG = f"a coefficient of the input exceeds {MAX_COEFF_BITS} bits"

# ASCII digits only: any other character, a non-ASCII digit too, is a token
# of one character with no kind
_TOKEN = re.compile(r"[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[()+\-*/^]|\S")
# a token's kind by its first character: ``int``, ``name`` or the operator
# character itself
_KINDS = {c: c for c in "()+-*/^"} | dict.fromkeys("0123456789", "int")
_KINDS |= {c: "name" for c in map(chr, range(65, 123)) if c.isalpha() or c == "_"}


def _tokens(text: str) -> tuple:
    """The kinds and the values of the tokens of ``text``, both lists ending
    in an ``eof`` token; a token's offset is found again only for an error."""
    values = _TOKEN.findall(text)
    kinds = [_KINDS.get(v[0]) for v in values]
    if None in kinds:
        n = kinds.index(None)
        raise ExprSyntaxError(f"unexpected character {values[n]!r}", _offset(text, n))
    return kinds + ["eof"], values + [""]


def _offset(text: str, n: int) -> int:
    """The offset of token ``n`` of ``text``, its length for the ``eof`` token."""
    return [*(m.start() for m in _TOKEN.finditer(text)), len(text)][n]


def _bounded(f: TruncSeries) -> TruncSeries:
    if f.bits() > MAX_COEFF_BITS:
        raise ValueError(_TOO_BIG)
    return f


def _literal(value: str) -> int | None:
    """The int of a decimal token, or ``None`` past ``MAX_LITERAL_DIGITS`` digits
    after its leading zeros: counted before ``int()``, which refuses long text."""
    if len(value) > MAX_LITERAL_DIGITS and len(value := value.lstrip("0")) > MAX_LITERAL_DIGITS:
        return None
    return int(value or "0")


class _Descent:
    """The evaluating recursive descent over the tokens of one text.

    Each method consumes its rule's tokens and returns the rule's value;
    each literal, sum, power and product with a series is checked against
    ``MAX_COEFF_BITS``, and a term's monomial as ``term`` describes.
    """

    def __init__(self, text: str, vars: tuple, order: int):
        self.text = text
        self.kinds, self.values = _tokens(text)
        self.i = 0
        self.depth = 0
        self.vars = _space(vars, order)
        self.order = order
        self.top = order << _BITS * len(vars)  # the least key of degree ``order``
        self.units = {v: _key([int(u == v) for u in vars]) for v in vars}

    def constant(self, re: int, im: int, den: int) -> TruncSeries:
        num = {0: (re, im)} if (re or im) and self.order else {}  # 0 keys the origin
        return TruncSeries._reduced(self.vars, self.order, den, num)

    def expr(self) -> TruncSeries:
        """A sum: every term's numerators added into one map over the lcm of
        the terms' denominators, and that sum checked once."""
        kinds = self.kinds
        negated = kinds[self.i] == "-"
        self.i += negated
        terms = [(-1 if negated else 1, self.term())]  # each term a series or a monomial
        while (kind := kinds[self.i]) == "+" or kind == "-":
            self.i += 1
            terms.append((-1 if kind == "-" else 1, self.term()))
        alone = len(terms) == 1 and not negated  # a term is checked as it is made
        if alone and type(terms[0][1]) is TruncSeries:
            return terms[0][1]
        f = _added(self.vars, self.order, [
            (sign, t._den, t._num.items()) if type(t) is TruncSeries else (sign, t[3], ((t[0], t[1:3]),))
            for sign, t in terms if t
        ])
        return f if alone else _bounded(f)

    def term(self):
        """A product: a series, or a monomial ``(key, re, im, den)`` in lowest
        terms, ``()`` for zero.  Numbers, ``i``, variable powers and one-term
        groups such as ``(1 - i)`` multiply one monomial, zero from the order
        on; it is folded into ``value``, and the product checked, before any
        other factor and when ``bound`` passes the limit."""
        value = None  # the product of the factors before the monomial; None for 1
        key, re, im, den, bound = 0, 1, 0, 1, 0
        while True:
            f = self.factor()
            if type(f) is not tuple and len(f._num) == 1:
                ((k, (r, i)),) = f._num.items()  # a Gaussian factor adds a bit more
                f = k, r, i, f._den, max(abs(r), abs(i), f._den).bit_length() + 1
            if type(f) is tuple:
                k, r, i, d, bits = f
                key, den, bound = key + k, den * d, bound + bits
                re, im = (re * r - im * i, re * i + im * r) if key < self.top else (0, 0)
            if type(f) is not tuple or bound > MAX_COEFF_BITS:  # fold the monomial into value
                if value is not None or (key, re, im) != (0, den, 0):
                    value = _bounded(self.times(value, key, re, im, den))
                if type(f) is not tuple:
                    value = f if value is None else _bounded(_dot([(value, f, 1)], self.order))
                key, re, im, den, bound = 0, 1, 0, 1, MAX_COEFF_BITS
            if self.kinds[self.i] != "*":
                if value is not None:
                    return self.times(value, key, re, im, den)
                g = gcd(den, re, im)
                return (key, re // g, im // g, den // g) if re or im else ()
            self.i += 1

    def times(self, value: TruncSeries | None, key: int, re: int, im: int, den: int) -> TruncSeries:
        """``value`` (``None`` for 1) times the monomial ``(re + im*i)/den`` at ``key``."""
        if value is not None and (key, re, im) == (0, den, 0):
            return value
        mono = TruncSeries._reduced(self.vars, self.order, den, {key: (re, im)} if re or im else {})
        return mono if value is None else _dot([(value, mono, 1)], self.order)

    def error(self, message: str, n: int) -> ExprSyntaxError:
        """The syntax error ``message`` at token ``n``."""
        return ExprSyntaxError(message, _offset(self.text, n))

    def factor(self):
        """A series, or a monomial factor ``(key, re, im, den, bits)``, where
        ``bits`` bounds how many bits it adds to a product."""
        base = self.base()
        n = self.i + 1  # the exponent's token
        if self.kinds[n - 1] != "^":
            return base
        self.i += 2
        if self.kinds[n] != "int":
            raise self.error("exponent must be an unsigned integer", n)
        value = self.values[n]
        exponent = _literal(value)
        if exponent is None or exponent > MAX_EXPONENT:
            shown = f"of {len(value.lstrip('0'))} digits" if exponent is None else exponent
            raise self.error(f"exponent {shown} exceeds {MAX_EXPONENT}", n)
        if type(base) is tuple:
            if base[0]:  # a variable: zero once the power reaches the order
                return (base[0] * exponent, 1, 0, 1, 0) if exponent < self.order else (0, 0, 0, 1, 0)
            base = self.constant(*base[1:4])  # a number or i
        return self.power(base, exponent)

    def base(self):
        n = self.i
        kind, value = self.kinds[n], self.values[n]
        self.i += 1
        if kind == "int":
            num, den = _literal(value), 1
            if num is None:
                raise ValueError(_TOO_BIG)
            if self.kinds[n + 1] == "/":
                n += 2
                self.i = n + 1
                den = _literal(self.values[n]) if self.kinds[n] == "int" else 0
                if den is None:
                    raise ValueError(_TOO_BIG)
                if not den:
                    raise self.error("denominator must be a positive integer", n)
            if (bits := max(num, den).bit_length()) > MAX_COEFF_BITS:  # checked once reduced
                _bounded(self.constant(num, 0, den))
            return 0, num, 0, den, bits
        if kind == "name":
            if value == "i":
                return 0, 0, 1, 1, 0
            if value not in self.vars:
                raise self.error(f"undeclared variable {value!r}", n)
            return self.units[value], 1, 0, 1, 0
        if kind == "(":
            self.depth += 1
            if self.depth > MAX_DEPTH:
                raise self.error(f"parentheses nested deeper than {MAX_DEPTH}", n)
            value = self.expr()
            self.i += 1
            if self.kinds[self.i - 1] != ")":
                raise self.error("expected ')'", self.i - 1)
            self.depth -= 1
            return value
        raise self.error("expected a number, variable, 'i' or '('", n)

    def power(self, base: TruncSeries, n: int) -> TruncSeries:
        """``base^n`` by repeated squaring, zero at once when its
        valuation reaches the order."""
        if n == 0:
            return self.constant(1, 0, 1)
        if base.valuation() * n >= self.order:
            return self.constant(0, 0, 1)
        result = None
        while True:
            if n & 1:
                result = base if result is None else _bounded(_dot([(result, base, 1)], self.order))
            n >>= 1
            if not n:
                return result
            base = _bounded(_dot([(base, base, 1)], self.order))


def parse_series(text: str, vars: Sequence[str], order: int) -> TruncSeries:
    """Parse expression text into an exact series truncated at ``order``.

    Every numerator and the denominator of the result, and of each
    intermediate value, has at most ``MAX_COEFF_BITS`` bits; larger input,
    and a literal of more than ``MAX_LITERAL_DIGITS`` digits, raises
    ``ValueError``.  Malformed text raises ``ExprSyntaxError`` with
    the offset of the first error in the text.
    """
    descent = _Descent(text, tuple(vars), order)
    value = descent.expr()
    if descent.kinds[descent.i] != "eof":
        raise descent.error(f"unexpected {descent.values[descent.i]!r}", descent.i)
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


def _render_coeff(c: GaussRat) -> str | None:
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
