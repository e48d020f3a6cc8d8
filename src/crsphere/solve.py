"""Implicit function theorem at series level: degree-by-degree linear solves.

Given equations ``E_i(knowns, unknowns) = 0`` vanishing at the origin with
an invertible Jacobian with respect to the unknowns there, the unique
solutions ``u_j = S_j(knowns)`` with ``S_j(0) = 0`` are built one
homogeneous degree at a time: if ``S`` is exact below degree ``d``, the
residual ``E(k, S)`` starts at degree ``d`` and its degree-``d`` part
equals ``J (S - S_true)_d``, so a single exact linear solve per monomial
restores exactness below ``d + 1``.  This is jet-level Newton iteration
with deterministic cost, not a fixed-point loop.

Division by a unit series, one more degree-by-degree solve, is here too:
``TruncSeries.div`` calls ``_divided``.  The commands that divide load this
module; ``check`` never divides, so its processes do not compile it.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import InternalCheckError, NonUnitError, NotSolvableError
from .series import _BITS, TruncSeries, _convolve


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


def _divided(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    """``TruncSeries.div``: ``f`` divided by the unit series ``g``, degree
    by degree, exact to ``min(Kf, Kg)``."""
    f._check_space(g)
    if 0 not in g._num:  # the origin's key
        raise NonUnitError("divisor has zero constant term")
    order = min(f.order, g.order)
    cr, ci = g._num[0]
    norm = cr * cr + ci * ci
    shift = _BITS * len(f.vars)
    bound = order << shift
    # the origin's row comes first
    rows, keys = g._operand()
    gplus, keys = rows[1:], keys[1:]
    # With f = F/Df and g = (c + G)/Dg, G the terms of positive degree,
    # f/g = Dg/Df * q for q = F/(c + G).  Its degree-d part q_d is kept
    # as the Gaussian integers N^(d+1) q_d, N = |c|^2, since dividing by
    # c is multiplying by conj(c)/N; rest[d] holds N^d times the degree-d
    # part of F minus every (G q_e)_d, e < d, found so far.
    powers = [norm**k for k in range(order + 1)]
    rest = [{} for _ in range(order)]
    for key, (re, im) in f._num.items():
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
        for key, (re, im) in _convolve(q, gplus, keys, order, shift, {}).items():
            e = key >> shift
            s = powers[e - d - 1]
            part = rest[e]
            old = part.get(key, (0, 0))
            part[key] = (old[0] - re * s, old[1] - im * s)
    if not quotient:
        return TruncSeries._make(f.vars, order, 1, {})
    last = quotient[-1][0]
    num = {}
    for d, q in quotient:
        s = powers[last - d] * g._den
        for key, re, im in q:
            num[key] = (re * s, im * s)
    return TruncSeries._reduced(f.vars, order, f._den * powers[last + 1], num)
