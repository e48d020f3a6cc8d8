"""Complex defining equations ``w = Theta(z, zb, wb)`` and their checks.

``zb`` and ``wb`` are *independent* formal variables (the extrinsic
complexification of the conjugated coordinates); nothing here ever
auto-conjugates them.  The variable naming is normative throughout the
package: a defining function lives in the space ``(z, zb, wb)``, a real
graphing function in ``(x, y, v)``, a holomorphic map in ``(z, w)`` and a
rigid part in ``(z, zb)``; the tuples below are the one home of each name.

The reality check composes the defining function with its coefficient-
conjugate; the Levi form is the determinant

    delta = Theta_zb * Theta_z,wb - Theta_wb * Theta_z,zb

whose value at the origin decides nondegeneracy.  It is the bordered
determinant ``det(a|b)`` of the solution manifold ``y = Theta``, so it
lives there: each ``ComplexDefining`` builds that manifold once, on first
use, and ``levi_delta`` reads the determinant from its cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from .errors import (
    ArityError,
    InternalCheckError,
    NotSolvableError,
)
from .rational import GaussRat, ONE
from .series import TruncSeries
from .solve import implicit_solve
from .transfer import SolutionManifold

THETA_VARS = ("z", "zb", "wb")
GRAPH_VARS = ("x", "y", "v")
MAP_VARS = ("z", "w")
XI_VARS = ("z", "zb")

HALF = GaussRat.of("1/2")
MINUS_I_HALF = GaussRat.of(0, "-1/2")  # 1/(2i)


@dataclass(frozen=True)
class RealGraph:
    """A real graphing function ``u = phi(x, y, v)`` vanishing to second order."""

    phi: TruncSeries

    def __post_init__(self):
        phi = self.phi
        if phi.vars != GRAPH_VARS:
            raise ArityError(f"real graph must use variables {GRAPH_VARS}, got {phi.vars}")
        if any(c.im != 0 for c in phi.terms.values()):
            raise ValueError("real graphing function has a non-real coefficient")
        if not phi.constant_term().is_zero():
            raise ValueError("graphing function must vanish at the origin")
        for name in GRAPH_VARS:
            mono = tuple(1 if v == name else 0 for v in GRAPH_VARS)
            if not phi.coeff(mono).is_zero():
                raise ValueError("graphing function must have vanishing first derivatives")


@dataclass
class ComplexDefining:
    """``Theta`` with its rigidity flag; always of the form ``-wb + O(2)``."""

    theta: TruncSeries
    rigid: bool = False
    # kept by ``invariants`` once computed: the cross-checked numerator
    # ``delta^3 aj4`` and the operator ``(delta Q_a, delta Q_b, L0[delta])``
    # of the denominator-cleared recursion
    aj4_numerator: Optional[TruncSeries] = field(
        default=None, init=False, repr=False, compare=False
    )
    cleared_operator: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @cached_property
    def manifold(self) -> SolutionManifold:
        """The solution manifold ``y = Theta(z; zb, wb)``, built on first use."""
        return SolutionManifold(self.theta)

    @cached_property
    def reality_witness(self) -> Optional[tuple]:
        """``verify_reality`` at the full known order, checked on first use."""
        return _reality_witness(self.theta)

    @staticmethod
    def from_theta(theta: TruncSeries) -> "ComplexDefining":
        if theta.vars != THETA_VARS:
            raise ArityError(f"defining function must use variables {THETA_VARS}")
        if not theta.constant_term().is_zero():
            raise ValueError("defining function must vanish at the origin")
        if theta.order >= 2:
            lin = {v: theta.coeff(tuple(1 if u == v else 0 for u in THETA_VARS))
                   for v in THETA_VARS}
            if not (
                lin["z"].is_zero()
                and lin["zb"].is_zero()
                and lin["wb"] == -ONE
            ):
                raise ValueError("defining function must have linear part -wb")
        d = ComplexDefining(theta=theta)
        d.rigid = detect_rigid(theta)
        return d


@dataclass(frozen=True)
class Biholo:
    """An origin-fixing biholomorphism ``(z, w) -> (f, g)`` of C^2."""

    f: TruncSeries
    g: TruncSeries

    def __post_init__(self):
        for s in (self.f, self.g):
            if s.vars != MAP_VARS:
                raise ArityError(f"map components must use variables {MAP_VARS}")
            if not s.constant_term().is_zero():
                raise ValueError("map must fix the origin")
        jz = [self.f.coeff((1, 0)), self.f.coeff((0, 1))]
        jw = [self.g.coeff((1, 0)), self.g.coeff((0, 1))]
        det = jz[0] * jw[1] - jz[1] * jw[0]
        if det.is_zero():
            raise ValueError("map has a singular linear part at the origin")


def theta_bar(theta: TruncSeries) -> TruncSeries:
    """The coefficient-conjugate series, as a function of ``(z, zb, w)``.

    ``Theta(z, zb, wb)`` has conjugate ``Theta_bar(zb, z, w)``: conjugated
    coefficients with the first two argument slots swapped and the last one
    renamed, so the composed reality identity lives in ``(z, zb, w)``.
    """
    return theta.conjugate({"z": "zb", "zb": "z", "wb": "w"}).reorder(("z", "zb", "w"))


def verify_reality(d: ComplexDefining, order: Optional[int] = None):
    """Check ``w == Theta(z, zb, Theta_bar(zb, z, w))`` to the given order.

    Returns ``None`` on success, else the lowest graded-lex nonzero term of
    the residual as a ``(monomial, coefficient)`` witness over ``(z, zb, w)``.
    Without ``order`` the witness is kept on ``d``, so each defining
    function is composed with its conjugate once.
    The second functional equation of the reality condition is equivalent
    by conjugation and is covered by a property test instead.
    """
    if order is None:
        return d.reality_witness
    return _reality_witness(d.theta.truncate(order))


def _reality_witness(theta: TruncSeries):
    tb = theta_bar(theta)
    composed = theta.substitute({"wb": tb})
    residual = composed - TruncSeries.variable("w", ("z", "zb", "w"), composed.order)
    if residual.is_zero():
        return None
    return residual.lowest_term()


def levi_delta(d: ComplexDefining):
    """The Levi determinant series and its nondegeneracy at the origin."""
    return d.manifold.delta(), d.manifold.solvable


def detect_rigid(theta: TruncSeries) -> bool:
    """True iff ``theta + wb`` has no ``wb`` dependence at all."""
    wb = TruncSeries.variable("wb", THETA_VARS, theta.order)
    return (theta + wb).derive("wb").is_zero()


def to_complex_defining(graph: RealGraph, order: int) -> ComplexDefining:
    """Convert ``u = phi(x, y, v)`` into ``w = Theta(z, zb, wb)``.

    Solves ``(w + wb)/2 = phi((z + zb)/2, (z - zb)/(2i), (w - wb)/(2i))``
    for ``w``; the resulting defining function is validated against the
    reality condition, which must hold because ``phi`` was real.
    """
    space = ("z", "zb", "wb", "w")
    z = TruncSeries.variable("z", space, order)
    zb = TruncSeries.variable("zb", space, order)
    wb = TruncSeries.variable("wb", space, order)
    w = TruncSeries.variable("w", space, order)
    phi4 = graph.phi.substitute(
        {
            "x": (z + zb).scale(HALF),
            "y": (z - zb).scale(MINUS_I_HALF),
            "v": (w - wb).scale(MINUS_I_HALF),
        }
    )
    eq = phi4 - (w + wb).scale(HALF)
    theta = implicit_solve([eq], ["w"], order)["w"]
    d = ComplexDefining.from_theta(theta)
    witness = verify_reality(d)
    if witness is not None:
        raise InternalCheckError(
            f"conversion of a real graph violates the reality condition: {witness}"
        )
    return d


def transform_defining(d: ComplexDefining, h: Biholo, order: int) -> ComplexDefining:
    """Push the defining equation forward through an origin-fixing biholomorphism.

    On the complexified graph the map acts as ``(f, g, f_bar, g_bar)``; the
    image is re-graphed by solving first the conjugate pair for the source
    conjugate coordinates, then the ``z``-component.  A singular solve means
    the image is not graphed over ``(z', zb', wb')`` and is reported as
    ``NotSolvableError``.
    """
    theta = d.theta.truncate(order)
    if theta.order < order:
        order = theta.order
    fb = h.f.conjugate({"z": "zt", "w": "wt"})
    gb = h.g.conjugate({"z": "zt", "w": "wt"})

    # stage 1: (zt, wt) from (zb', wb') = (f_bar, g_bar)(zt, wt)
    s1 = ("zbp", "wbp", "zt", "wt")
    eq1 = fb.extend(s1) - TruncSeries.variable("zbp", s1, order)
    eq2 = gb.extend(s1) - TruncSeries.variable("wbp", s1, order)
    inv = implicit_solve([eq1, eq2], ["zt", "wt"], order)

    # stage 2: compose Theta with the recovered conjugate coordinates
    mid = ("z", "zbp", "wbp")
    comp = theta.substitute(
        {"zb": inv["zt"].extend(mid), "wb": inv["wt"].extend(mid)}
    )

    # stage 3: z from z' = f(z, Theta(z, zt, wt))
    s3 = ("zp", "zbp", "wbp", "z")
    comp4 = comp.extend(s3)
    f_on_graph = h.f.substitute({"w": comp4})
    eq3 = f_on_graph - TruncSeries.variable("zp", s3, order)
    zsol = implicit_solve([eq3], ["z"], order)["z"]

    # stage 4: Theta' = g on the graph, composed with the solved z
    g_on_graph = h.g.substitute({"w": comp4})
    theta_new = (
        g_on_graph.substitute({"z": zsol})
        .rename({"zp": "z", "zbp": "zb", "wbp": "wb"})
        .reorder(THETA_VARS)
    )

    try:
        image = ComplexDefining.from_theta(theta_new)
    except ValueError as exc:
        raise NotSolvableError(f"image is not graphed in normalized form: {exc}") from exc
    witness = verify_reality(image)
    if witness is not None:
        raise InternalCheckError(
            f"holomorphic image violates the reality condition: {witness}"
        )
    return image
