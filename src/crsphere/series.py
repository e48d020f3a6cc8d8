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
directly.  The arithmetic works on ints and keys; only the remaps of
the variable space (``reorder``, ``extend`` and ``substitute``'s
grouping) decode and re-encode keys.  Exponent tuples and ``GaussRat``
values are built only at the boundary: the constructor clears and
encodes its input, and ``terms``, ``coeff``, ``constant_term``,
``lowest_term`` and ``sorted_terms`` build fresh values on each call.
The convolution visits, for each left row of degree ``d``, only the
right rows of degree below ``K - d``; a product with a one-term side is
no convolution but a shift of the other side's keys and a scale of its
numerators.  The kernel's helpers are private: the benchmark's tracer
wraps every public function of this module, and a span per helper call
would change the spans it counts.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from itertools import groupby, islice
from math import gcd, lcm
from operator import itemgetter
from typing import Iterable, Mapping, Optional

from .errors import ArityError, CompositionError, NonUnitError
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


def _rows(num: dict, bound: int) -> list:
    """The nonzero terms of ``num`` with keys below ``bound`` as
    ``(key, re, im)`` rows in key order."""
    rows = [(k, re, im) for k, (re, im) in num.items() if k < bound and (re or im)]
    rows.sort(key=itemgetter(0))
    return rows


def _nonzero(acc: dict) -> dict:
    """The nonzero accumulated terms of ``_convolve`` as ``(re, im)`` pairs."""
    return {k: (re, im) for k, (re, im) in acc.items() if re or im}


def _convolve(left: list, right: list, order: int, shift: int, acc: dict) -> dict:
    """Add the Gaussian-integer product of two row lists below ``order``
    into ``acc``, ``{key: [re, im]}``, zeros included, and return it;
    ``shift`` is the place of the degree digit.  Both lists are in key
    order (left rows of one degree may come in any order): each left row
    meets only the right prefix of degree below ``order`` minus its own.
    """
    keys = [row[0] for row in right]
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


def _product(f: TruncSeries, g: TruncSeries, order: int) -> TruncSeries:
    """``f * g`` below ``order``, over the product of their denominators.
    A side of one term ``(k1, r1 + i1 i)`` is a shift and a scale: ``k1``
    is added to each key of the other side below ``(order - deg k1) <<
    shift``, and each numerator is multiplied by ``r1 + i1 i``; products
    of nonzero Gaussian integers are nonzero, so none is filtered out.
    Else the shorter side leads the convolution, one ``bisect`` per row:
    both row lists are key-sorted, so either may.  ``_convolve`` does not
    swap itself, as ``div`` gives it left rows of one degree in any order."""
    shift = _BITS * len(f.vars)
    one, other = (f, g) if len(f._num) == 1 else (g, f)
    if len(one._num) == 1:
        ((k1, (r1, i1)),) = one._num.items()
        top = (order - (k1 >> shift)) << shift
        num = {k1 + k: (r1 * re - i1 * im, r1 * im + i1 * re)
               for k, (re, im) in other._num.items() if k < top}
    else:
        bound = order << shift
        left, right = sorted((_rows(f._num, bound), _rows(g._num, bound)), key=len)
        num = _nonzero(_convolve(left, right, order, shift, {}))
    return TruncSeries._reduced(f.vars, order, f._den * g._den, num)


def _over(c: GaussRat, den: int) -> tuple:
    """The Gaussian-integer numerator of ``c`` over ``den``, a common
    multiple of its denominators."""
    return c.re.numerator * (den // c.re.denominator), c.im.numerator * (den // c.im.denominator)


def _combine(parts: list) -> TruncSeries:
    """``sum(sign * f)`` over ``(f, sign)`` pairs of one space, over the lcm
    of their denominators."""
    first = parts[0][0]
    for f, _ in parts[1:]:
        first._check_space(f)
    order = min(f.order for f, _ in parts)
    bound = order << _BITS * len(first.vars)
    den = lcm(*(f._den for f, _ in parts))
    acc: dict = {}
    for f, sign in parts:
        k = sign * (den // f._den)
        items = f._num.items()
        if f.order > order:
            items = [(key, v) for key, v in items if key < bound]
        for key, (re, im) in items:
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
    return TruncSeries._reduced(first.vars, order, den, acc)


class TruncSeries:
    """A truncated formal power series; immutable by convention."""

    __slots__ = ("vars", "order", "_den", "_num")
    __hash__ = None

    def __init__(self, vars: Iterable[str], terms: Mapping[Mono, GaussRat], order: int):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ArityError(f"duplicate variable names in {vars}")
        if order < 0:
            raise ValueError("known order must be nonnegative")
        if order > MAX_ORDER:
            raise ValueError(f"known order {order} exceeds the largest supported order {MAX_ORDER}")
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

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _make(vars: tuple, order: int, den: int, num: dict) -> TruncSeries:
        """Wrap numerators that are already normalised."""
        f = object.__new__(TruncSeries)
        f.vars = vars
        f.order = order
        f._den = den
        f._num = num
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

    def valuation(self) -> int:
        if not self._num:
            return self.order
        return min(self._num) >> _BITS * len(self.vars)

    def coeff(self, mono: Mono) -> GaussRat:
        mono = tuple(mono)
        if len(mono) != len(self.vars) or min(mono, default=0) < 0 or sum(mono) >= self.order:
            return ZERO
        pair = self._num.get(_key(mono))
        return ZERO if pair is None else self._coeff(*pair)

    def constant_term(self) -> GaussRat:
        return self.coeff((0,) * self.arity)

    def lowest_term(self) -> Optional[tuple]:
        """The (monomial, coefficient) pair minimal in graded-lex order."""
        if not self._num:
            return None
        key = min(self._num)
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

    def __mul__(self, other) -> TruncSeries:
        if isinstance(other, GaussRat):
            return self.scale(other)
        self._check_space(other)
        order = min(
            self.order + other.valuation(),
            other.order + self.valuation(),
            self.order + other.order,
            MAX_ORDER,
        )
        return _product(self, other, order)

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
        bound = order << shift
        subbed = []  # (source slot, denominator, image rows)
        passing = []  # (source slot, target slot) of each pass-through variable
        for i, v in enumerate(self.vars):
            if v in images:
                im = images[v]
                subbed.append((i, im._den, _rows(im._num, bound)))
            else:
                if v not in target:
                    raise ArityError(f"variable {v!r} absent from target space {target}")
                passing.append((i, target.index(v)))
        # group the terms by their substituted exponents; pass-through
        # exponents move straight into their target slots
        groups: dict = {}
        arity = len(self.vars)
        for key, pair in self._num.items():
            if key >> _BITS * arity >= order:
                continue
            mono = _mono(key, arity)
            out = [0] * len(target)
            for i, j in passing:
                out[j] = mono[i]
            group = tuple(mono[i] for i, _, _ in subbed)
            groups.setdefault(group, {})[_key(out)] = pair
        # one denominator for every group: f's times each image's to its top power
        common = self._den
        for k, (_, den, _) in enumerate(subbed):
            common *= den ** max((group[k] for group in groups), default=0)
        acc: dict = {}

        def expand(keys: list, level: int, product: list, den: int) -> None:
            # ``keys`` share their first ``level`` exponents, whose image
            # powers multiply to the rows ``product`` over ``den``
            if level == len(subbed):
                part = _rows(groups[keys[0]], bound)
                scale = common // den
                if scale != 1:
                    part = [(k, re * scale, im * scale) for k, re, im in part]
                _convolve(part, product, order, shift, acc)
                return
            _, image_den, image = subbed[level]
            power = 0
            for e, sub in groupby(keys, itemgetter(level)):
                while power < e:
                    product = _rows(_convolve(product, image, order, shift, {}), bound)
                    den *= image_den
                    power += 1
                expand(list(sub), level + 1, product, den)

        if groups:
            expand(sorted(groups), 0, [(0, 1, 0)], self._den)
        # the closure refers to itself: break that cycle, so the groups and
        # image products it holds are freed now, not at the next collection
        del expand
        return TruncSeries._reduced(target, order, common, _nonzero(acc))

    def div(self, g: TruncSeries) -> TruncSeries:
        """Divide by a unit series, degree by degree; exact to min(Kf, Kg)."""
        self._check_space(g)
        if 0 not in g._num:  # the origin's key
            raise NonUnitError("divisor has zero constant term")
        order = min(self.order, g.order)
        cr, ci = g._num[0]
        norm = cr * cr + ci * ci
        shift = _BITS * len(self.vars)
        bound = order << shift
        # the origin's row comes first when there are any
        gplus = _rows(g._num, bound)[1:]
        # With f = F/Df and g = (c + G)/Dg, G the terms of positive degree,
        # f/g = Dg/Df * q for q = F/(c + G).  Its degree-d part q_d is kept
        # as the Gaussian integers N^(d+1) q_d, N = |c|^2, since dividing by
        # c is multiplying by conj(c)/N; rest[d] holds N^d times the degree-d
        # part of F minus every (G q_e)_d, e < d, found so far.
        powers = [norm**k for k in range(order + 1)]
        rest = [{} for _ in range(order)]
        for key, (re, im) in self._num.items():
            if key < bound:
                d = key >> shift
                rest[d][key] = (re * powers[d], im * powers[d])
        quotient = []  # (d, rows of N^(d+1) q_d)
        for d in range(order):
            q = [
                (key, re * cr + im * ci, im * cr - re * ci)
                for key, (re, im) in rest[d].items()
                if re or im
            ]
            if not q:
                continue
            quotient.append((d, q))
            for key, (re, im) in _convolve(q, gplus, order, shift, {}).items():
                e = key >> shift
                s = powers[e - d - 1]
                part = rest[e]
                old = part.get(key, (0, 0))
                part[key] = (old[0] - re * s, old[1] - im * s)
        if not quotient:
            return TruncSeries._make(self.vars, order, 1, {})
        last = quotient[-1][0]
        num = {}
        for d, q in quotient:
            s = powers[last - d] * g._den
            for key, re, im in q:
                num[key] = (re * s, im * s)
        return TruncSeries._reduced(self.vars, order, self._den * powers[last + 1], num)

    # -- variable-space plumbing ----------------------------------------------

    def conjugate(self, relabel: Optional[Mapping[str, str]] = None) -> TruncSeries:
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
        pos = [new_vars.index(v) for v in self.vars]
        arity = len(self.vars)
        num = {}
        for key, pair in self._num.items():
            out = [0] * len(new_vars)
            for j, e in zip(pos, _mono(key, arity)):
                out[j] = e
            num[_key(out)] = pair
        return TruncSeries._make(new_vars, self.order, self._den, num)
