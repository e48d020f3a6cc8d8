"""Solution manifolds, parameter elimination and the dual manifold.

A second-order ODE ``y_xx = F(x, y, y_x)`` corresponds to the graph
``y = Q(x, a, b)`` of its general solution, parametrized by the initial
conditions ``(a, b)``.  Eliminating the parameters gives ``F``
(``derive-ode``); swapping variables and parameters gives the dual
(``dual``).  Each bordered determinant

    det(u|v) = | Q_u   Q_v  |
               | Q_xu  Q_xv |

is evaluated once per manifold and kept beside the cached derivatives of
``Q``, as are the ODE and the dual at each order asked; ``det(a|b)`` is
the master denominator ``delta``.  The paper's jet-transfer formulas are
audited in ``selftest``.
"""

from __future__ import annotations

from .errors import InternalCheckError, NotSolvableError
from .series import TruncSeries

XAB = ("x", "a", "b")


class SolutionManifold:
    """A graph ``y = Q(x, a, b)``; the three variable slots play the roles
    of ``x`` (independent), ``a`` and ``b`` (parameters) positionally."""

    __slots__ = ("q", "_cache")

    def __init__(self, q: TruncSeries):
        if q.arity != 3:
            raise NotSolvableError("a solution manifold needs exactly three variables")
        if not q.constant_term().is_zero():
            raise NotSolvableError("the graphing function must vanish at the origin")
        self.q = q
        self._cache = {"": q}

    def d(self, key: str) -> TruncSeries:
        """The partial of ``Q`` named by a word over ``{x, a, b}``, e.g.
        ``"xab"``: derived once, from the kept word one letter shorter."""
        key = "".join(sorted(key))
        if key not in self._cache:
            self._cache[key] = self.d(key[:-1]).derive(self.q.vars["xab".index(key[-1])])
        return self._cache[key]

    def kept(self, key: str, make):
        """``make()``, called once per ``key`` and kept on the manifold."""
        if key not in self._cache:
            self._cache[key] = make()
        return self._cache[key]

    def det(self, u: str, v: str) -> TruncSeries:
        """The bordered determinant ``Q_u Q_xv - Q_v Q_xu``, evaluated once."""
        d, dot = self.d, TruncSeries.dot
        return self.kept(u + "|" + v, lambda: dot([(d(u), d("x" + v), 1), (d(v), d("x" + u), -1)]))

    def delta(self) -> TruncSeries:
        return self.det("a", "b")

    @property
    def solvable(self) -> bool:
        """Solvable with respect to the parameters at the origin."""
        return not self.delta().constant_term().is_zero()

    def ode(self, order: int) -> TruncSeries:
        """``associated_ode(self, order)``, eliminated once per effective order."""
        key = f"ode@{min(order, self.q.order - 1)}"
        return self.kept(key, lambda: associated_ode(self, order))

    def dual(self, order: int) -> "SolutionManifold":
        """``dual_manifold(self, order)``, built once per effective order."""
        return self.kept(f"dual@{min(order, self.q.order)}", lambda: dual_manifold(self, order))


def solve_parameters(m: SolutionManifold, order: int) -> tuple[TruncSeries, TruncSeries]:
    """Invert ``(y, y_x) = (Q, Q_x)`` for the parameters: ``a = A(x, y, yx)``,
    ``b = B(x, y, yx)``.

    The effective order is capped by the jet of ``Q`` that is actually
    known (``Q_x`` costs one derivative).  Both defining residuals are
    re-checked by composing back with ``(Q, Q_x)``.
    """
    from .solve import implicit_solve  # loaded by the commands that solve, not by ``check``
    if not m.solvable:
        raise NotSolvableError("manifold is not solvable with respect to the parameters")
    q = m.q.rename(dict(zip(m.q.vars, XAB)))
    if not q.coeff((1, 0, 0)).is_zero():
        raise NotSolvableError("Q_x does not vanish at the origin; not a germ at 0")
    order = min(order, q.order - 1)
    qx = q.derive("x")
    space = ("x", "y", "yx", "a", "b")
    eq1 = q.extend(space) - TruncSeries.variable("y", space, q.order)
    eq2 = qx.extend(space) - TruncSeries.variable("yx", space, qx.order)
    sol = implicit_solve([eq1, eq2], ["a", "b"], order)
    a_of, b_of = sol["a"], sol["b"]
    # residuals of the inverse composition, asserted exactly
    images = {"y": q.truncate(order), "yx": qx.truncate(order)}
    for series, var in ((a_of, "a"), (b_of, "b")):
        back = series.substitute(images)
        target = TruncSeries.variable(var, XAB, back.order)
        if not (back - target).is_zero():
            raise InternalCheckError(f"parameter solve residual for {var!r} is nonzero")
    return a_of, b_of


def associated_ode(m: SolutionManifold, order: int) -> TruncSeries:
    """Eliminate the parameters from ``y_xx = Q_xx``: the right-hand side
    ``F`` of the associated ODE ``y_xx = F(x, y, y_x)``, over ``(x, y, yx)``."""
    a_of, b_of = solve_parameters(m, order)
    q = m.q.rename(dict(zip(m.q.vars, XAB)))
    qxx = q.derive("x").derive("x")
    return qxx.substitute({"a": a_of, "b": b_of})


def dual_manifold(m: SolutionManifold, order: int) -> SolutionManifold:
    """Swap variables and parameters: solve ``b = Q*(a, x, y)`` from
    ``y = Q(x, a, b)`` and regrade ``(a; x, y)`` as the new ``(x; a, b)``."""
    from .solve import implicit_solve
    q = m.q.rename(dict(zip(m.q.vars, XAB)))
    if q.coeff((0, 0, 1)).is_zero():
        raise NotSolvableError("Q_b vanishes at the origin; cannot solve for b")
    order = min(order, q.order)
    space = ("a", "x", "y", "b")
    eq = q.extend(space) - TruncSeries.variable("y", space, q.order)
    qstar = implicit_solve([eq], ["b"], order)["b"]
    return SolutionManifold(qstar.rename({"a": "x", "x": "a", "y": "b"}))
