"""Gaussian rational scalars: the exact coefficient field.

A value is ``re + im*i`` with both parts ``fractions.Fraction``, so every
field operation is exact and "equals zero" is decidable.  ``Fraction``
already keeps numerator/denominator in lowest terms with a positive
denominator, which gives a canonical representation for free.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"cannot build an exact rational from {type(x).__name__}")


@dataclass(frozen=True)
class GaussRat:
    """An exact Gaussian rational ``re + im*i``."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    # -- constructors ----------------------------------------------------

    @staticmethod
    def of(re, im=0) -> GaussRat:
        return GaussRat(_frac(re), _frac(im))

    @staticmethod
    def i() -> GaussRat:
        return GaussRat(Fraction(0), Fraction(1))

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    # -- field operations --------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(self.re + other.re, self.im + other.im)

    def __sub__(self, other):
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(self.re - other.re, self.im - other.im)

    def __neg__(self) -> GaussRat:
        return GaussRat(-self.re, -self.im)

    def __mul__(self, other):
        if not isinstance(other, GaussRat):
            return NotImplemented
        return GaussRat(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def conj(self) -> GaussRat:
        return GaussRat(self.re, -self.im)

    def inv(self) -> GaussRat:
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        n = self.re * self.re + self.im * self.im
        return GaussRat(self.re / n, -self.im / n)

    def __truediv__(self, other):
        if not isinstance(other, GaussRat):
            return NotImplemented
        return self * other.inv()

    # -- rendering ---------------------------------------------------------

    def as_pq_strings(self) -> dict:
        """Render as ``{"re": "p/q", "im": "p/q"}`` with explicit denominators."""
        return {
            "re": f"{self.re.numerator}/{self.re.denominator}",
            "im": f"{self.im.numerator}/{self.im.denominator}",
        }

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"({self.re} {sign} {abs(self.im)}*i)"


ZERO = GaussRat()
ONE = GaussRat.of(1)
