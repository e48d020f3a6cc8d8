"""Sparse truncated multivariate formal power series over Gaussian rationals.

A ``TruncSeries`` stores a finite map from exponent tuples to nonzero
``GaussRat`` coefficients together with a *known order* ``K``: every
coefficient of total degree ``< K`` is exact, everything at degree
``>= K`` is unknown and never stored.  All operations propagate ``K``
conservatively by fixed rules so that independent computation paths
truncate identically:

* ``f + g``, ``f - g``:  ``min(Kf, Kg)``
* ``f * g``:             ``min(Kf + val(g), Kg + val(f), Kf + Kg)``
* ``derive``:            ``K - 1`` (floor 0)
* ``substitute``:        ``min(Kf, min K of the provided images)``
* ``div`` (unit divisor): ``min(Kf, Kg)``

where ``val(f)`` is the minimal total degree of a stored term (``K`` for
the zero series).  Monomials are ordered graded-lexicographically:
by total degree first, then by the exponent tuple; "lowest term" always
means minimal in this order, which pins witness selection.

``f * g`` and ``f.div(g)`` run on an integer-numerator kernel.  Each
operand is brought over one common denominator ``D`` (the lcm of its
``re``/``im`` denominators), so a term becomes ``(mono, degree, D*re,
D*im)`` with plain ints and its degree is summed once.  The convolution
accumulates ``re1*re2 - im1*im2`` and ``re1*im2 + im1*re2`` per output
monomial with no gcd in the loop, and builds one ``GaussRat`` over
``Df*Dg`` per nonzero output term.  ``div`` runs the same convolution
once per degree, of that degree's quotient terms with ``g - c``.  The
results are exactly those of the pair-by-pair ``GaussRat`` loops, which
``tests/test_series.py`` keeps as references for hypothesis tests on
mixed, large and purely imaginary coefficients, cancelling products,
zero and constant operands, positive valuation and divisors whose
constant term is not 1.

``f.substitute(images)`` runs on the same kernel.  The terms of ``f`` are
grouped by the exponents of the substituted variables; the exponents of
a pass-through variable only move into its slot of the target space.
Each distinct product of image powers is formed once, as a running
product over the substituted slots in sorted order (an exponent 0 costs
nothing), and is dropped once the groups under it are done.  Each group
is convolved with its product into one accumulator over one common
denominator, and one ``GaussRat`` is built per nonzero output term.  The
result is exactly that of the term-by-term loop (a constant times one
image power per slot, added into the result), which ``tests/test_series.py``
keeps as the reference for hypothesis tests on pass-through variables,
target spaces other than the source, images of valuation 2 and more or
known to a lower order than ``f``, terms at or above the common order,
cancelling groups, mixed and large denominators and no images at all.

The kernel's helpers are private: the benchmark's tracer wraps every
public function of this module, and a span per helper call would change
the spans it counts.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from itertools import groupby
from operator import add, itemgetter
from typing import Iterable, Mapping, Optional

from .errors import ArityError, CompositionError, NonUnitError
from .rational import GaussRat, ONE, ZERO

Mono = tuple  # exponent tuple, one slot per variable


def degree(mono: Mono) -> int:
    return sum(mono)


def graded_lex_key(mono: Mono) -> tuple:
    """Sort key realizing the graded-lexicographic order."""
    return (sum(mono), mono)


def _cleared(terms: Mapping[Mono, GaussRat]) -> tuple:
    """Clear denominators once: ``(D, [(mono, degree, D*re, D*im), ...])``.

    ``D`` is the lcm of every ``re``/``im`` denominator, so the scaled
    parts are plain ints; ``D`` is 1 for no terms.
    """
    den = lcm(*(q.denominator for c in terms.values() for q in (c.re, c.im)))
    return den, [
        (
            mono,
            sum(mono),
            c.re.numerator * (den // c.re.denominator),
            c.im.numerator * (den // c.im.denominator),
        )
        for mono, c in terms.items()
    ]


def _convolve(left: list, right: list, order: int, acc: Optional[dict] = None) -> dict:
    """Gaussian-integer product of two cleared term lists below ``order``.

    Returns ``{mono: [re, im]}`` over the product of the two denominators;
    no gcd is taken inside the loop.  With ``acc`` the product is added
    into that accumulator, which is returned.
    """
    if acc is None:
        acc = {}
    for m1, d1, r1, i1 in left:
        for m2, d2, r2, i2 in right:
            if d1 + d2 >= order:
                continue
            mono = tuple(map(add, m1, m2))
            slot = acc.get(mono)
            if slot is None:
                acc[mono] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
            else:
                slot[0] += r1 * r2 - i1 * i2
                slot[1] += r1 * i2 + i1 * r2
    return acc


def _rationalize(acc: dict, den: int) -> dict:
    """One ``GaussRat`` per nonzero accumulated term of ``_convolve``."""
    return {
        mono: GaussRat(Fraction(re, den), Fraction(im, den))
        for mono, (re, im) in acc.items()
        if re or im
    }


class TruncSeries:
    """A truncated formal power series; immutable by convention."""

    __slots__ = ("vars", "terms", "order")
    __hash__ = None

    def __init__(self, vars: Iterable[str], terms: Mapping[Mono, GaussRat], order: int):
        vars = tuple(vars)
        if len(set(vars)) != len(vars):
            raise ArityError(f"duplicate variable names in {vars}")
        if order < 0:
            raise ValueError("known order must be nonnegative")
        kept = {}
        for mono, coeff in terms.items():
            mono = tuple(mono)
            if len(mono) != len(vars):
                raise ArityError(f"monomial {mono} has wrong arity for {vars}")
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in {mono}")
            if coeff.is_zero() or sum(mono) >= order:
                continue
            kept[mono] = coeff
        self.vars = vars
        self.terms = kept
        self.order = order

    # -- constructors ----------------------------------------------------

    @staticmethod
    def _valid(vars: tuple, terms: dict, order: int) -> TruncSeries:
        """Wrap terms that already satisfy the invariants ``__init__`` enforces."""
        f = object.__new__(TruncSeries)
        f.vars = vars
        f.terms = terms
        f.order = order
        return f

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

    def is_zero(self) -> bool:
        return not self.terms

    def valuation(self) -> int:
        if not self.terms:
            return self.order
        return min(sum(m) for m in self.terms)

    def coeff(self, mono: Mono) -> GaussRat:
        return self.terms.get(tuple(mono), ZERO)

    def constant_term(self) -> GaussRat:
        return self.terms.get((0,) * self.arity, ZERO)

    def lowest_term(self) -> Optional[tuple]:
        """The (monomial, coefficient) pair minimal in graded-lex order."""
        if not self.terms:
            return None
        mono = min(self.terms, key=graded_lex_key)
        return mono, self.terms[mono]

    def sorted_terms(self) -> list:
        return sorted(self.terms.items(), key=lambda kv: graded_lex_key(kv[0]))

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        return (
            self.vars == other.vars
            and self.order == other.order
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        from .parsing import render_series

        return f"<{render_series(self)} | vars={','.join(self.vars)} K={self.order}>"

    # -- ring operations ---------------------------------------------------

    def _check_space(self, other: TruncSeries) -> None:
        if self.vars != other.vars:
            raise ArityError(f"variable spaces differ: {self.vars} vs {other.vars}")

    def __add__(self, other: TruncSeries) -> TruncSeries:
        self._check_space(other)
        order = min(self.order, other.order)
        terms = dict(self.terms)
        for mono, coeff in other.terms.items():
            terms[mono] = terms.get(mono, ZERO) + coeff
        return TruncSeries(self.vars, terms, order)

    def __sub__(self, other: TruncSeries) -> TruncSeries:
        return self + (-other)

    def __neg__(self) -> TruncSeries:
        return TruncSeries(self.vars, {m: -c for m, c in self.terms.items()}, self.order)

    def scale(self, c: GaussRat) -> TruncSeries:
        return TruncSeries(self.vars, {m: c * v for m, v in self.terms.items()}, self.order)

    def __mul__(self, other) -> TruncSeries:
        if isinstance(other, GaussRat):
            return self.scale(other)
        self._check_space(other)
        order = min(
            self.order + other.valuation(),
            other.order + self.valuation(),
            self.order + other.order,
        )
        df, left = _cleared(self.terms)
        dg, right = _cleared(other.terms)
        terms = _rationalize(_convolve(left, right, order), df * dg)
        return TruncSeries._valid(self.vars, terms, order)

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

    def truncate(self, n: int) -> TruncSeries:
        """Forget everything at total degree >= n (never raises the order)."""
        return TruncSeries(self.vars, self.terms, min(self.order, n))

    # -- calculus ------------------------------------------------------------

    def derive(self, var: str) -> TruncSeries:
        """Formal partial derivative; known order drops by one."""
        if var not in self.vars:
            raise ArityError(f"unknown variable {var!r} for space {self.vars}")
        i = self.vars.index(var)
        order = max(self.order - 1, 0)
        terms = {}
        for mono, coeff in self.terms.items():
            if mono[i] == 0:
                continue
            new = list(mono)
            new[i] -= 1
            terms[tuple(new)] = GaussRat.of(mono[i]) * coeff
        return TruncSeries(self.vars, terms, order)

    def substitute(self, images: Mapping[str, TruncSeries]) -> TruncSeries:
        """Compose with the given images, exactly to the common known order.

        Every image must have zero constant term and all images must share
        one target variable space; variables without an image map to the
        same-named variable of the target space.  The terms are summed by
        groups of equal substituted exponents (see the module docstring).
        """
        spaces = {im.vars for im in images.values()}
        if len(spaces) > 1:
            raise ArityError(f"substitution images live in different spaces: {spaces}")
        target = spaces.pop() if spaces else self.vars
        order = self.order
        for name, im in images.items():
            if name not in self.vars:
                raise ArityError(f"image given for {name!r}, not a variable of {self.vars}")
            if not im.constant_term().is_zero():
                raise CompositionError(f"image for {name!r} has a nonzero constant term")
            order = min(order, im.order)
        subbed = []  # (source slot, denominator, cleared image below the order)
        shift = []  # (source slot, target slot) of each pass-through variable
        for i, v in enumerate(self.vars):
            if v in images:
                below = {m: c for m, c in images[v].terms.items() if sum(m) < order}
                subbed.append((i, *_cleared(below)))
            else:
                if v not in target:
                    raise ArityError(f"variable {v!r} absent from target space {target}")
                shift.append((i, target.index(v)))
        # group the terms by their substituted exponents; pass-through
        # exponents move straight into their target slots
        df, cleared = _cleared({m: c for m, c in self.terms.items() if sum(m) < order})
        groups: dict = {}
        for mono, deg, re, im in cleared:
            out = [0] * len(target)
            for i, j in shift:
                out[j] = mono[i]
            key = tuple(mono[i] for i, _, _ in subbed)
            groups.setdefault(key, []).append((tuple(out), deg - sum(key), re, im))
        # one denominator for every group: df times each image's to its top power
        common = df
        for k, (_, den, _) in enumerate(subbed):
            common *= den ** max((key[k] for key in groups), default=0)
        acc: dict = {}

        def expand(keys: list, level: int, product: list, den: int) -> None:
            # ``keys`` share their first ``level`` exponents, whose image
            # powers multiply to ``product`` over ``den``
            if level == len(subbed):
                part = groups[keys[0]]
                scale = common // den
                if scale != 1:
                    part = [(m, d, re * scale, im * scale) for m, d, re, im in part]
                _convolve(part, product, order, acc)
                return
            _, image_den, image = subbed[level]
            power = 0
            for e, sub in groupby(keys, itemgetter(level)):
                while power < e:
                    product = [
                        (m, sum(m), re, im)
                        for m, (re, im) in _convolve(product, image, order).items()
                        if re or im
                    ]
                    den *= image_den
                    power += 1
                expand(list(sub), level + 1, product, den)

        if groups:
            expand(sorted(groups), 0, [((0,) * len(target), 0, 1, 0)], df)
        # the closure refers to itself: break that cycle, so the groups and
        # image products it holds are freed now, not at the next collection
        del expand
        return TruncSeries._valid(target, _rationalize(acc, common), order)

    def div(self, g: TruncSeries) -> TruncSeries:
        """Divide by a unit series, degree by degree; exact to min(Kf, Kg)."""
        self._check_space(g)
        c = g.constant_term()
        if c.is_zero():
            raise NonUnitError("divisor has zero constant term")
        order = min(self.order, g.order)
        cinv = c.inv()
        dg, gplus = _cleared({m: v for m, v in g.terms.items() if sum(m) > 0})
        # rest[d]: the degree-d part of f minus every (g - c) * h_e, e < d, found so far
        rest = [{} for _ in range(order)]
        for mono, coeff in self.terms.items():
            if sum(mono) < order:
                rest[sum(mono)][mono] = coeff
        hterms: dict = {}
        for d in range(order):
            h_d = {}
            for mono, coeff in rest[d].items():
                val = coeff * cinv
                if not val.is_zero():
                    h_d[mono] = val
            hterms.update(h_d)
            dh, cleared = _cleared(h_d)
            product = _rationalize(_convolve(cleared, gplus, order), dh * dg)
            for mono, coeff in product.items():
                part = rest[sum(mono)]
                part[mono] = part.get(mono, ZERO) - coeff
        return TruncSeries._valid(self.vars, hterms, order)

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
        return TruncSeries(new_vars, {m: c.conj() for m, c in self.terms.items()}, self.order)

    def rename(self, mapping: Mapping[str, str]) -> TruncSeries:
        """Rename variables (bijectively) without touching coefficients."""
        mapping = dict(mapping)
        new_vars = tuple(mapping.get(v, v) for v in self.vars)
        if len(set(new_vars)) != len(new_vars):
            raise ArityError(f"renaming {mapping} is not a bijection on {self.vars}")
        return TruncSeries(new_vars, dict(self.terms), self.order)

    def reorder(self, new_vars: Iterable[str]) -> TruncSeries:
        """Permute variable slots into the given order."""
        new_vars = tuple(new_vars)
        if set(new_vars) != set(self.vars) or len(new_vars) != self.arity:
            raise ArityError(f"{new_vars} is not a permutation of {self.vars}")
        idx = [self.vars.index(v) for v in new_vars]
        terms = {tuple(m[i] for i in idx): c for m, c in self.terms.items()}
        return TruncSeries(new_vars, terms, self.order)

    def extend(self, new_vars: Iterable[str]) -> TruncSeries:
        """Embed into a larger variable space containing the current one."""
        new_vars = tuple(new_vars)
        if not set(self.vars) <= set(new_vars):
            raise ArityError(f"{new_vars} does not contain {self.vars}")
        pos = {v: new_vars.index(v) for v in self.vars}
        terms = {}
        for mono, coeff in self.terms.items():
            new = [0] * len(new_vars)
            for v, e in zip(self.vars, mono):
                new[pos[v]] = e
            terms[tuple(new)] = coeff
        return TruncSeries(new_vars, terms, self.order)
