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
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

from .errors import ArityError, CompositionError, NonUnitError
from .rational import GaussRat, ONE, ZERO

Mono = tuple  # exponent tuple, one slot per variable


def degree(mono: Mono) -> int:
    return sum(mono)


def graded_lex_key(mono: Mono) -> tuple:
    """Sort key realizing the graded-lexicographic order."""
    return (sum(mono), mono)


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
        terms: dict = {}
        for m1, c1 in self.terms.items():
            d1 = sum(m1)
            for m2, c2 in other.terms.items():
                if d1 + sum(m2) >= order:
                    continue
                mono = tuple(a + b for a, b in zip(m1, m2))
                terms[mono] = terms.get(mono, ZERO) + c1 * c2
        return TruncSeries(self.vars, terms, order)

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
        same-named variable of the target space.
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
        full = []
        for v in self.vars:
            if v in images:
                full.append(images[v].truncate(order))
            else:
                if v not in target:
                    raise ArityError(f"variable {v!r} absent from target space {target}")
                full.append(TruncSeries.variable(v, target, order))
        # cache image powers; exponents >= order contribute nothing (val >= 1)
        pows = [[TruncSeries.one(target, order)] for _ in full]
        result = TruncSeries.zero(target, order)
        for mono, coeff in self.terms.items():
            if sum(mono) >= order:
                continue
            term = TruncSeries.constant(coeff, target, order)
            for slot, e in enumerate(mono):
                cache = pows[slot]
                while len(cache) <= e:
                    cache.append(cache[-1] * full[slot])
                term = term * cache[e]
            result = result + term
        return result

    def div(self, g: TruncSeries) -> TruncSeries:
        """Divide by a unit series, degree by degree; exact to min(Kf, Kg)."""
        self._check_space(g)
        c = g.constant_term()
        if c.is_zero():
            raise NonUnitError("divisor has zero constant term")
        order = min(self.order, g.order)
        cinv = c.inv()
        gplus = {m: v for m, v in g.terms.items() if sum(m) > 0}
        hterms: dict = {}
        # acc collects (g - c) * h contributions, filled as h grows
        acc: dict = {}
        by_degree: dict = {}
        for mono, coeff in self.terms.items():
            if sum(mono) < order:
                by_degree.setdefault(sum(mono), {})[mono] = coeff
        for d in range(order):
            cur = dict(by_degree.get(d, {}))
            for mono, coeff in acc.items():
                if sum(mono) == d:
                    cur[mono] = cur.get(mono, ZERO) - coeff
            h_d = {}
            for mono, coeff in cur.items():
                val = coeff * cinv
                if not val.is_zero():
                    h_d[mono] = val
            hterms.update(h_d)
            for mg, cg in gplus.items():
                dg = sum(mg)
                for mh, ch in h_d.items():
                    if dg + d >= order:
                        continue
                    mono = tuple(a + b for a, b in zip(mg, mh))
                    acc[mono] = acc.get(mono, ZERO) + cg * ch
        return TruncSeries(self.vars, hterms, order)

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
