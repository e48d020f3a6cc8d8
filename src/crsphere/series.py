"""Sparse truncated multivariate formal power series over Gaussian rationals.

A ``TruncSeries`` is a finite map from monomials to nonzero
Gaussian-rational coefficients together with a *known order* ``K``: every
coefficient of total degree ``< K`` is exact, everything at degree
``>= K`` is unknown and never stored.  ``K`` is at most ``MAX_ORDER``
(128): the constructor rejects a larger one.  All operations propagate
``K`` conservatively by fixed rules so that independent computation
paths truncate identically, and none raises it past the ceiling:

* ``f + g``, ``f - g``:  ``min(Kf, Kg)``
* ``f * g``:             ``min(Kf + val(g), Kg + val(f), Kf + Kg, 128)``
* ``dot(parts, cap)``:   the least ``f * g`` order of the parts' operands cut to ``cap``
* ``derive``:            ``K - 1`` (floor 0)
* ``substitute``:        ``min(Kf, min K of the provided images)``
* ``div`` (unit divisor): ``min(Kf, Kg)``

where ``val(f)`` is the minimal total degree of a stored term (``K`` for
the zero series).  Monomials are ordered graded-lexicographically:
by total degree first, then by the exponent tuple; "lowest term" always
means minimal in this order, which pins witness selection.

Representation: the coefficients are kept cleared, as one positive int
denominator ``_den`` and a map ``_num`` from monomial keys to nonzero
Gaussian-integer numerators ``(re, im)``, every monomial of degree below
``K``.  A key is one int whose 7-bit digits are the monomial's degree
followed by its exponents; every digit is below ``K``, so keys sort in
graded-lex order, and adding two keys multiplies the monomials with no
carry while the product's degree stays below ``K``.  The form is
normalised so that ``_den`` and all numerators have gcd 1, and the zero
series has ``_den == 1``; it is canonical, so ``==`` compares it
directly.  The arithmetic works on ints and keys, the remaps of the
variable space (``reorder``, ``extend`` and ``substitute``'s grouping)
included: they move a key's digits by shift and mask.  Exponent tuples
and ``GaussRat`` values are built only at the boundary: the constructor
clears and encodes its input, and ``terms``, ``coeff``, ``constant_term``,
``lowest_term`` and ``sorted_terms`` build fresh values on each call.
Every product goes through one kernel, ``_dot``, which adds a whole sum
``k1 f1 g1 + k2 f2 g2 + ...`` into one accumulator.  A series sorts its
``(key, re, im)`` rows and their keys once, on its first use as an
operand, and keeps them until it dies; ``_dot`` cuts them at the
product's order with ``bisect``, and ``valuation`` and ``lowest_term``
read the first of them.  Equality reads only the space, the order and the
cleared form.  The convolution visits, for each left row of degree ``d``,
only the right rows of degree below ``K - d``; a one-term side shifts and
scales the other.  The kernel's helpers are private: the benchmark's
tracer wraps every public function of this module, and a span per helper
call would change the spans it counts.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Mapping
from fractions import Fraction
from itertools import groupby, islice
from math import gcd, lcm
from operator import itemgetter

from .errors import ArityError, CompositionError
from .rational import GaussRat, ONE, ZERO

Mono = tuple  # exponent tuple, one slot per variable

_BITS = 7  # width of a key digit
MAX_ORDER = 1 << _BITS  # the largest known order: every degree is one digit
_DIGIT = MAX_ORDER - 1


def _key(mono) -> int:
    """The key of an exponent sequence of degree below ``MAX_ORDER``."""
    key = sum(mono)
    for e in mono:
        key = key << _BITS | e
    return key


def _mono(key: int, arity: int) -> Mono:
    """The exponent tuple of ``key`` in a space of ``arity`` variables."""
    return tuple([key >> place & _DIGIT for place in range(_BITS * (arity - 1), -1, -_BITS)])


def _space(vars: Iterable[str], order: int) -> tuple:
    """``vars`` as a tuple of distinct names, with ``order`` checked to be a
    known order of a series over them."""
    vars = tuple(vars)
    if len(set(vars)) != len(vars):
        raise ArityError(f"duplicate variable names in {vars}")
    if order < 0:
        raise ValueError("known order must be nonnegative")
    if order > MAX_ORDER:
        raise ValueError(f"known order {order} exceeds the largest supported order {MAX_ORDER}")
    return vars


def _rows(num: dict) -> list:
    """The nonzero terms of ``num`` as ``(key, re, im)`` rows in key order."""
    rows = [(k, re, im) for k, (re, im) in num.items() if re or im]
    rows.sort(key=itemgetter(0))
    return rows


def _remapped(keys: list, arity: int, target: int, slots: list) -> list:
    """``keys`` over ``arity`` variables as keys over ``target`` ones: the
    degree digit goes to the degree place and, for each ``(i, j)`` of
    ``slots``, the exponent of slot ``i`` to slot ``j``.  Digits that shift
    by one step move together, under one mask."""
    masks: dict = {}
    for at, to in [(arity, target), *((arity - 1 - i, target - 1 - j) for i, j in slots)]:
        masks[_BITS * (to - at)] = masks.get(_BITS * (to - at), 0) | _DIGIT << _BITS * at
    out = [0] * len(keys)
    for step, mask in masks.items():
        up, down = max(step, 0), max(-step, 0)
        out = [o | (k & mask) << up >> down for o, k in zip(out, keys)]
    return out


def _nonzero(acc: dict) -> dict:
    """The nonzero accumulated terms of ``_convolve`` as ``(re, im)`` pairs."""
    return {k: (re, im) for k, (re, im) in acc.items() if re or im}


def _convolve(left: list, right: list, keys: list, order: int, shift: int, acc: dict) -> dict:
    """Add the Gaussian-integer product of two row lists below ``order``
    into ``acc``, ``{key: [re, im]}``, zeros included, and return it;
    ``keys`` are the right rows' keys and ``shift`` is the place of the
    degree digit.  Both lists are in key order (left rows of one degree may
    come in any order): each left row meets only the right prefix of degree
    below ``order`` minus its own, so rows past ``order`` need no cut.
    """
    for k1, r1, i1 in left:
        n = bisect_left(keys, (order - (k1 >> shift)) << shift)
        if not n:
            break  # the left rows come by degree: the later ones meet none
        for k2, r2, i2 in islice(right, n):
            k = k1 + k2
            slot = acc.get(k)
            if slot is None:
                acc[k] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
            else:
                slot[0] += r1 * r2 - i1 * i2
                slot[1] += r1 * i2 + i1 * r2
    return acc


def _dot(parts: list, order: int) -> TruncSeries:
    """``sum(k * f * g)`` below ``order`` over ``(f, g, k)`` parts of one
    space, added into one accumulator over the lcm of the ``f._den * g._den``.
    Each part's factor (``k`` times its share of that lcm) scales its shorter
    side.  A side of one term ``(k1, r1 + i1 i)`` shifts the other side's
    keys below ``(order - deg k1) << shift`` by ``k1`` and scales them;
    else the side with fewer rows below ``order``, found by ``bisect`` in
    the operands' kept rows, leads the convolution (``_convolve`` does not
    swap itself, as ``div`` gives it left rows of one degree in any order).
    Zeros are dropped and the content divided out once, at the end."""
    vars = parts[0][0].vars
    shift = _BITS * len(vars)
    bound = order << shift
    den = lcm(*(f._den * g._den for f, g, _ in parts))
    acc: dict = {}
    for f, g, k in parts:
        k *= den // (f._den * g._den)
        one, other = (f, g) if len(f._num) == 1 else (g, f)
        if len(one._num) == 1:
            ((k1, (r1, i1)),) = one._num.items()
            r1, i1 = r1 * k, i1 * k
            top = (order - (k1 >> shift)) << shift
            for key, (re, im) in other._num.items():
                if key < top:
                    key += k1
                    slot = acc.get(key)
                    if slot is None:
                        acc[key] = [r1 * re - i1 * im, r1 * im + i1 * re]
                    else:
                        slot[0] += r1 * re - i1 * im
                        slot[1] += r1 * im + i1 * re
        else:
            left, lkeys = f._operand()
            right, keys = g._operand()
            n, m = bisect_left(lkeys, bound), bisect_left(keys, bound)
            if m < n:
                left, right, keys, n = right, left, lkeys, m
            if k != 1:
                left = [(key, re * k, im * k) for key, re, im in islice(left, n)]
            _convolve(left, right, keys, order, shift, acc)
    return TruncSeries._reduced(vars, order, den, _nonzero(acc))


def _over(c: GaussRat, den: int) -> tuple:
    """The Gaussian-integer numerator of ``c`` over ``den``, a common
    multiple of its denominators."""
    return c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)


def _added(vars: tuple, order: int, parts: list) -> TruncSeries:
    """``sum(k * num/den)`` over ``(k, den, num)`` parts, ``num`` the
    ``(key, (re, im))`` items of numerators below ``order``, added into one
    map over the lcm of the denominators."""
    den = lcm(*(d for _, d, _ in parts))
    acc: dict = {}
    for k, d, num in parts:
        k *= den // d
        for key, (re, im) in num:
            old = acc.get(key)
            if old is None:
                acc[key] = (re * k, im * k)
                continue
            re = old[0] + re * k
            im = old[1] + im * k
            if re or im:
                acc[key] = (re, im)
            else:
                del acc[key]
    return TruncSeries._reduced(vars, order, den, acc)


def _combine(parts: list) -> TruncSeries:
    """``sum(sign * f)`` over ``(f, sign)`` pairs of one space, to the least
    of their orders."""
    first = parts[0][0]
    for f, _ in parts[1:]:
        first._check_space(f)
    order = min(f.order for f, _ in parts)
    bound = order << _BITS * len(first.vars)
    return _added(first.vars, order, [
        (sign, f._den, f._num.items() if f.order == order else [kv for kv in f._num.items() if kv[0] < bound])
        for f, sign in parts
    ])


class TruncSeries:
    """A truncated formal power series; immutable by convention."""

    __slots__ = ("vars", "order", "_den", "_num", "_sorted")
    __hash__ = None

    def __init__(self, vars: Iterable[str], terms: Mapping[Mono, GaussRat], order: int):
        vars = _space(vars, order)
        kept = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != len(vars):
                raise ArityError(f"monomial {mono} has wrong arity for {vars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if coeff.is_zero() or sum(mono) >= order:
                continue
            kept[_key(mono)] = coeff
        # the lcm of reduced denominators leaves no common content
        den = lcm(*(q.denominator for c in kept.values() for q in (c.re, c.im)))
        self.vars = vars
        self.order = order
        self._den = den
        self._num = {key: _over(c, den) for key, c in kept.items()}
        self._sorted = None

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _make(vars: tuple, order: int, den: int, num: dict) -> TruncSeries:
        """Wrap numerators that are already normalised."""
        f = object.__new__(TruncSeries)
        f.vars = vars
        f.order = order
        f._den = den
        f._num = num
        f._sorted = None
        return f

    @staticmethod
    def _reduced(vars: tuple, order: int, den: int, num: dict) -> TruncSeries:
        """Wrap nonzero numerators below ``order`` over ``den > 0``,
        dividing out their common content with ``den``."""
        if not num:
            den = 1
        elif den != 1:
            g = den
            for re, im in num.values():
                g = gcd(g, re, im)
                if g == 1:
                    break
            if g != 1:
                den //= g
                num = {key: (re // g, im // g) for key, (re, im) in num.items()}
        return TruncSeries._make(vars, order, den, num)

    @staticmethod
    def zero(vars: Iterable[str], order: int) -> TruncSeries:
        return TruncSeries(vars, {}, order)

    @staticmethod
    def constant(c: GaussRat, vars: Iterable[str], order: int) -> TruncSeries:
        vars = tuple(vars)
        return TruncSeries(vars, {(0,) * len(vars): c}, order)

    @staticmethod
    def one(vars: Iterable[str], order: int) -> TruncSeries:
        return TruncSeries.constant(ONE, vars, order)

    @staticmethod
    def variable(name: str, vars: Iterable[str], order: int) -> TruncSeries:
        vars = tuple(vars)
        if name not in vars:
            raise ArityError(f"unknown variable {name!r} for space {vars}")
        mono = tuple(1 if v == name else 0 for v in vars)
        return TruncSeries(vars, {mono: ONE}, order)

    # -- basic queries -----------------------------------------------------

    @property
    def arity(self) -> int:
        return len(self.vars)

    @property
    def terms(self) -> dict:
        """``{mono: GaussRat}``, a fresh dict of fresh values on each access."""
        n = len(self.vars)
        return {_mono(key, n): self._coeff(*pair) for key, pair in self._num.items()}

    def _coeff(self, re: int, im: int) -> GaussRat:
        return GaussRat(Fraction(re, self._den), Fraction(im, self._den))

    def bits(self) -> int:
        """The largest size in bits of the denominator or a numerator part."""
        top = max((abs(x) for pair in self._num.values() for x in pair), default=0)
        return max(self._den, top).bit_length()

    def is_zero(self) -> bool:
        return not self._num

    def _operand(self) -> tuple:
        """The ``(key, re, im)`` rows of the terms in key order and their
        keys, sorted on first use as an operand and kept until the series dies."""
        if self._sorted is None:
            rows = _rows(self._num)
            self._sorted = rows, [row[0] for row in rows]
        return self._sorted

    def _lowest_key(self) -> int:
        """The least key of a nonzero series: the first kept row, if any."""
        return min(self._num) if self._sorted is None else self._sorted[1][0]

    def valuation(self) -> int:
        if not self._num:
            return self.order
        return self._lowest_key() >> _BITS * len(self.vars)

    def coeff(self, mono: Mono) -> GaussRat:
        mono = tuple(mono)
        if len(mono) != len(self.vars) or min(mono, default=0) < 0 or sum(mono) >= self.order:
            return ZERO
        pair = self._num.get(_key(mono))
        return ZERO if pair is None else self._coeff(*pair)

    def constant_term(self) -> GaussRat:
        return self.coeff((0,) * self.arity)

    def lowest_term(self) -> tuple | None:
        """The (monomial, coefficient) pair minimal in graded-lex order."""
        if not self._num:
            return None
        key = self._lowest_key()
        return _mono(key, len(self.vars)), self._coeff(*self._num[key])

    def sorted_terms(self) -> list:
        n = len(self.vars)
        return [(_mono(key, n), self._coeff(*self._num[key])) for key in sorted(self._num)]

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self._den == other._den
            and self._num == other._num
        )

    def __repr__(self) -> str:
        from .parsing import render_series

        return f"<{render_series(self)} | vars={','.join(self.vars)} K={self.order}>"

    # -- ring operations ---------------------------------------------------

    def _check_space(self, other: TruncSeries) -> None:
        if self.vars != other.vars:
            raise ArityError(f"variable spaces differ: {self.vars} vs {other.vars}")

    @staticmethod
    def sum(parts: Iterable[TruncSeries]) -> TruncSeries:
        """The sum of one or more series of one space, accumulated in one dict."""
        return _combine([(f, 1) for f in parts])

    def __add__(self, other: TruncSeries) -> TruncSeries:
        return _combine([(self, 1), (other, 1)])

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return _combine([(self, 1), (other, -1)])

    def __neg__(self) -> TruncSeries:
        num = {key: (-re, -im) for key, (re, im) in self._num.items()}
        return TruncSeries._make(self.vars, self.order, self._den, num)

    def scale(self, c: GaussRat) -> TruncSeries:
        if c.is_zero():
            return TruncSeries._make(self.vars, self.order, 1, {})
        cden = lcm(c.re.denominator, c.im.denominator)
        a, b = _over(c, cden)
        num = {key: (re * a - im * b, re * b + im * a) for key, (re, im) in self._num.items()}
        return TruncSeries._reduced(self.vars, self.order, self._den * cden, num)

    @staticmethod
    def dot(parts: Iterable[tuple], cap: int = MAX_ORDER) -> TruncSeries:
        """``sum(k * f.truncate(cap) * g.truncate(cap))`` over one or more
        ``(f, g, k)`` parts of one space, ``k`` a nonzero int, accumulated
        in one pass; known to the least of the parts' product orders."""
        parts = list(parts)
        if cap < 0:
            raise ValueError("known order must be nonnegative")
        order = MAX_ORDER
        for f, g, _ in parts:
            parts[0][0]._check_space(f)
            f._check_space(g)
            kf, kg = min(f.order, cap), min(g.order, cap)
            order = min(order, kf + min(g.valuation(), kg), kg + min(f.valuation(), kf), kf + kg)
        return _dot(parts, order)

    def __mul__(self, other) -> TruncSeries:
        if isinstance(other, GaussRat):
            return self.scale(other)
        return TruncSeries.dot([(self, other, 1)])

    def __rmul__(self, other) -> TruncSeries:
        if isinstance(other, GaussRat):
            return self.scale(other)
        return NotImplemented

    def pow(self, n: int) -> TruncSeries:
        """``self^n`` by repeated squaring; same terms and known order as
        ``n`` successive multiplications."""
        if n < 0:
            raise ValueError("negative power of a series")
        if n == 0:
            return TruncSeries.one(self.vars, self.order)
        result = None
        square = self
        while True:
            if n & 1:
                result = square if result is None else result * square
            n >>= 1
            if not n:
                return result
            square = square * square

    def homogeneous_part(self, d: int, order: int) -> TruncSeries:
        """The terms of total degree ``d``, known to ``order``: the caller
        vouches that the part has no other term below ``order``."""
        shift = _BITS * len(self.vars)
        num = {key: pair for key, pair in self._num.items() if key >> shift == d < order}
        return TruncSeries._reduced(self.vars, order, self._den, num)

    def truncate(self, n: int) -> TruncSeries:
        """Forget everything at total degree >= n (never raises the order)."""
        if n >= self.order:
            return self
        if n < 0:
            raise ValueError("known order must be nonnegative")
        bound = n << _BITS * len(self.vars)
        num = {key: pair for key, pair in self._num.items() if key < bound}
        return TruncSeries._reduced(self.vars, n, self._den, num)

    # -- calculus ------------------------------------------------------------

    def derive(self, var: str) -> TruncSeries:
        """Formal partial derivative; known order drops by one."""
        if var not in self.vars:
            raise ArityError(f"unknown variable {var!r} for space {self.vars}")
        # one less in the degree digit and in the exponent's digit
        place = _BITS * (len(self.vars) - 1 - self.vars.index(var))
        step = (1 << _BITS * len(self.vars)) + (1 << place)
        num = {}
        for key, (re, im) in self._num.items():
            k = key >> place & _DIGIT
            if k:
                num[key - step] = (k * re, k * im)
        return TruncSeries._reduced(self.vars, max(self.order - 1, 0), self._den, num)

    def substitute(self, images: Mapping[str, TruncSeries]) -> TruncSeries:
        """Compose with the given images, exactly to the common known order.

        Every image must have zero constant term and all images must share
        one target variable space; variables without an image map to the
        same-named variable of the target space.  Terms with equal
        substituted exponents form one group, whose pass-through exponents
        only move into their target slots.  Each distinct product of image
        powers is formed once, as a running product over the substituted
        slots in sorted order, and each group is convolved with it into one
        accumulator over one common denominator.
        """
        spaces = {im.vars for im in images.values()}
        if len(spaces) > 1:
            raise ArityError(f"substitution images live in different spaces: {spaces}")
        target = spaces.pop() if spaces else self.vars
        order = self.order
        for name, im in images.items():
            if name not in self.vars:
                raise ArityError(f"image given for {name!r}, not a variable of {self.vars}")
            if 0 in im._num:  # the origin's key
                raise CompositionError(f"image for {name!r} has a nonzero constant term")
            order = min(order, im.order)
        shift = _BITS * len(target)
        arity = len(self.vars)
        subbed = []  # (source digit place, denominator, image rows and keys)
        passing = []  # (source slot, target slot) of each pass-through variable
        for i, v in enumerate(self.vars):
            if v in images:
                im = images[v]
                subbed.append((_BITS * (arity - 1 - i), im._den, im._operand()))
            else:
                if v not in target:
                    raise ArityError(f"variable {v!r} absent from target space {target}")
                passing.append((i, target.index(v)))
        # group the terms by their substituted exponents; the degree and the
        # pass-through exponents move straight into their target places, and
        # the substituted exponents leave the degree
        below = [key for key in self._num if key < order << _BITS * arity]
        groups: dict = {}
        for key, out in zip(below, _remapped(below, arity, len(target), passing)):
            group = tuple([key >> place & _DIGIT for place, _, _ in subbed])
            groups.setdefault(group, {})[out - (sum(group) << shift)] = self._num[key]
        # one denominator for every group: f's times each image's to its top power
        common = self._den
        for k, (_, den, _) in enumerate(subbed):
            common *= den ** max((group[k] for group in groups), default=0)
        acc: dict = {}

        def expand(keys: list, level: int, product: tuple, den: int) -> None:
            # ``keys`` share their first ``level`` exponents, whose image
            # powers multiply to the rows and keys ``product`` over ``den``
            if level == len(subbed):
                part = _rows(groups[keys[0]])
                scale = common // den
                if scale != 1:
                    part = [(k, re * scale, im * scale) for k, re, im in part]
                _convolve(part, *product, order, shift, acc)
                return
            _, image_den, image = subbed[level]
            power = 0
            for e, sub in groupby(keys, itemgetter(level)):
                while power < e:
                    rows = _rows(_convolve(product[0], *image, order, shift, {}))
                    product = rows, [row[0] for row in rows]
                    den *= image_den
                    power += 1
                expand(list(sub), level + 1, product, den)

        if groups:
            expand(sorted(groups), 0, ([(0, 1, 0)], [0]), self._den)
        # the closure refers to itself: break that cycle, so the groups and
        # image products it holds are freed now, not at the next collection
        del expand
        return TruncSeries._reduced(target, order, common, _nonzero(acc))

    def div(self, g: TruncSeries) -> TruncSeries:
        """Divide by a unit series, degree by degree; exact to min(Kf, Kg)."""
        from .solve import _divided  # with the solvers: a ``check`` never divides

        return _divided(self, g)

    # -- variable-space plumbing ----------------------------------------------

    def conjugate(self, relabel: Mapping[str, str] | None = None) -> TruncSeries:
        """Conjugate every coefficient, optionally renaming variables.

        The relabeling must be a bijection; exponents stay in their slots,
        so applying the inverse relabeling conjugate recovers the series.
        """
        relabel = dict(relabel or {})
        new_vars = tuple(relabel.get(v, v) for v in self.vars)
        if len(set(new_vars)) != len(new_vars):
            raise ArityError(f"relabeling {relabel} is not a bijection on {self.vars}")
        num = {key: (re, -im) for key, (re, im) in self._num.items()}
        return TruncSeries._make(new_vars, self.order, self._den, num)

    def rename(self, mapping: Mapping[str, str]) -> TruncSeries:
        """Rename variables (bijectively) without touching coefficients."""
        mapping = dict(mapping)
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new_vars)) != len(new_vars):
            raise ArityError(f"renaming {mapping} is not a bijection on {self.vars}")
        return TruncSeries._make(new_vars, self.order, self._den, self._num)

    def reorder(self, new_vars: Iterable[str]) -> TruncSeries:
        """Permute variable slots into the given order."""
        new_vars = tuple(new_vars)
        if set(new_vars) != set(self.vars) or len(new_vars) != self.arity:
            raise ArityError(f"{new_vars} is not a permutation of {self.vars}")
        return self._moved(new_vars)

    def extend(self, new_vars: Iterable[str]) -> TruncSeries:
        """Embed into a larger variable space containing the current one."""
        new_vars = tuple(new_vars)
        if not set(self.vars) <= set(new_vars):
            raise ArityError(f"{new_vars} does not contain {self.vars}")
        return self._moved(new_vars)

    def _moved(self, new_vars: tuple) -> TruncSeries:
        """The series over ``new_vars``, each exponent moved to its variable's slot."""
        slots = [(i, new_vars.index(v)) for i, v in enumerate(self.vars)]
        keys = _remapped(list(self._num), len(self.vars), len(new_vars), slots)
        return TruncSeries._make(new_vars, self.order, self._den, dict(zip(keys, self._num.values())))
