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
use, and ``levi_delta`` reads the determinant from its cache.  The
invariants of the verdict are kept on that manifold too: a
``ComplexDefining`` holds only ``Theta``, its manifold and its reality
witness.
"""

from __future__ import annotations

from functools import cached_property

from .errors import ArityError, InternalCheckError
from .rational import GaussRat, ONE, frozen
from .series import TruncSeries
from .transfer import SolutionManifold

THETA_VARS = ("z", "zb", "wb")
GRAPH_VARS = ("x", "y", "v")
MAP_VARS = ("z", "w")
XI_VARS = ("z", "zb")

HALF = GaussRat.of("1/2")
MINUS_I_HALF = GaussRat.of(0, "-1/2")  # 1/(2i)


class RealGraph:
    """A real graphing function ``u = phi(x, y, v)`` vanishing to second order."""

    __slots__ = ("phi",)
    __setattr__ = __delattr__ = frozen

    def __init__(self, phi: TruncSeries):
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
        object.__setattr__(self, "phi", phi)


class ComplexDefining:
    """``Theta``, always of the form ``-wb + O(2)``, with what is computed
    from it once: its solution manifold (which keeps the invariants) and its
    reality witness.  Equal by ``theta``."""

    def __init__(self, theta: TruncSeries):
        self.theta = theta

    def __eq__(self, other):
        if other.__class__ is not ComplexDefining:
            return NotImplemented
        return self.theta == other.theta

    __hash__ = None

    def __repr__(self) -> str:
        return f"ComplexDefining(theta={self.theta!r})"

    @cached_property
    def manifold(self) -> SolutionManifold:
        """The solution manifold ``y = Theta(z; zb, wb)``, built on first use."""
        return SolutionManifold(self.theta)

    @cached_property
    def reality_witness(self) -> tuple | None:
        """``verify_reality``, checked on first use."""
        composed = self.theta.substitute({"wb": theta_bar(self.theta)})
        w = TruncSeries.variable("w", ("z", "zb", "w"), composed.order)
        return (composed - w).lowest_term()

    @staticmethod
    def from_theta(theta: TruncSeries) -> ComplexDefining:
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
        return ComplexDefining(theta)


def theta_bar(theta: TruncSeries) -> TruncSeries:
    """The coefficient-conjugate series, as a function of ``(z, zb, w)``.

    ``Theta(z, zb, wb)`` has conjugate ``Theta_bar(zb, z, w)``: conjugated
    coefficients with the first two argument slots swapped and the last one
    renamed, so the composed reality identity lives in ``(z, zb, w)``.
    """
    return theta.conjugate({"z": "zb", "zb": "z", "wb": "w"}).reorder(("z", "zb", "w"))


def verify_reality(d: ComplexDefining):
    """Check ``w == Theta(z, zb, Theta_bar(zb, z, w))`` to the known order.

    Returns ``None`` on success, else the lowest graded-lex nonzero term of
    the residual as a ``(monomial, coefficient)`` witness over ``(z, zb, w)``.
    The witness is kept on ``d``, so each defining function is composed
    with its conjugate once.
    The second functional equation of the reality condition is equivalent
    by conjugation and is covered by a property test instead.
    """
    return d.reality_witness


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
    from .solve import implicit_solve  # loaded by the commands that solve, not by ``check``
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
