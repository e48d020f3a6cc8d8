"""Implicit function theorem at series level: degree-by-degree linear solves.

Given equations ``E_i(knowns, unknowns) = 0`` vanishing at the origin with
an invertible Jacobian with respect to the unknowns there, the unique
solutions ``u_j = S_j(knowns)`` with ``S_j(0) = 0`` are built one
homogeneous degree at a time: if ``S`` is exact below degree ``d``, the
residual ``E(k, S)`` starts at degree ``d`` and its degree-``d`` part
equals ``J (S - S_true)_d``, so a single exact linear solve per monomial
restores exactness below ``d + 1``.  This is jet-level Newton iteration
with deterministic cost, not a fixed-point loop.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InternalCheckError, NotSolvableError
from .series import TruncSeries


def _invert_matrix(j: list) -> list:
    n = len(j)
    if n == 1:
        a = j[0][0]
        if a.is_zero():
            raise NotSolvableError("singular Jacobian at the origin")
        return [[a.inv()]]
    a, b = j[0]
    c, d = j[1]
    det = a * d - b * c
    if det.is_zero():
        raise NotSolvableError("singular Jacobian at the origin")
    inv = det.inv()
    return [[d * inv, -b * inv], [-c * inv, a * inv]]


def implicit_solve(
    eqs: Sequence[TruncSeries], unknowns: Sequence[str], order: int
) -> dict:
    """Solve ``eqs = 0`` for ``unknowns`` as series in the remaining variables.

    Returns a map ``unknown -> TruncSeries`` over the known variables (in
    their original order); every solution has zero constant term and
    substituting the solutions back makes each equation vanish to ``order``
    (checked, a failure here is an internal bug).
    """
    unknowns = list(unknowns)
    if len(eqs) != len(unknowns) or len(eqs) not in (1, 2):
        raise NotSolvableError("need one or two equations, matching the unknown count")
    space = eqs[0].vars
    for eq in eqs:
        if eq.vars != space:
            raise NotSolvableError("equations live in different variable spaces")
        if not eq.constant_term().is_zero():
            raise NotSolvableError("equation does not vanish at the origin")
        if eq.order < order:
            raise NotSolvableError(
                f"equation known only to order {eq.order} < requested {order}"
            )
    for u in unknowns:
        if u not in space:
            raise NotSolvableError(f"unknown {u!r} is not a variable of {space}")
    knowns = tuple(v for v in space if v not in unknowns)

    def unit_mono(var):
        return tuple(1 if v == var else 0 for v in space)

    jac = [[eq.coeff(unit_mono(u)) for u in unknowns] for eq in eqs]
    # the correction of each degree is -J^(-1) times the residuals' parts
    step = [[-c for c in row] for row in _invert_matrix(jac)]

    sols = {u: TruncSeries.zero(knowns, order) for u in unknowns}
    for d in range(1, order):
        # terms of degree > d map to degree > d: the degree-d part needs eq below d + 1
        residuals = [
            eq.truncate(d + 1).substitute({u: sols[u] for u in unknowns}) for eq in eqs
        ]
        # each correction is homogeneous of degree d, so it is exact to ``order``
        parts = [r.homogeneous_part(d, order) for r in residuals]
        if all(p.is_zero() for p in parts):
            continue
        for u, row in zip(unknowns, step):
            sols[u] = TruncSeries.sum([sols[u], *(p.scale(c) for p, c in zip(parts, row))])
    for eq in eqs:
        residual = eq.substitute({u: sols[u] for u in unknowns})
        if not residual.is_zero():
            raise InternalCheckError(
                "implicit solve residual does not vanish to the requested order"
            )
    return sols
