"""Differential invariants and the sphericality verdict.

Three independent routes to the same obstruction are implemented and
cross-checked:

* the fourth-order closed formula ``aj4`` written directly in partial
  derivatives of the defining function, against the transferred
  ``d/d(y_x)`` operator applied twice to ``Theta_zz``;
* the sixth-order series ``aj6`` (the denominator-cleared double
  application of the transferred ``d/d(w_z)`` operator to ``aj4``),
  against the transferred fourth ``y_x``-derivative of the eliminated
  ODE's right-hand side (the Tresse invariant ``I1``);
* for rigid defining functions, a seven-term formula in the jet of the
  rigid part with integer coefficients ``+1, -6, -4, -1, +15, +10, -15``
  (``selftest.rigid_invariant``).

Vanishing of any of them (equivalently all of them) to the achieved
order is the sphericality verdict at that order.  The verdict runs in
stages, each with its report: reality, then Levi form, ``aj4`` and
``aj6``.  ``rigid-check`` runs the Hermitian check of ``Xi`` and then the
same stages on ``-wb + Xi``: the seven-term formula is the route of
``self-test`` and the tests, not of a verdict.

The verdict makes no division.  On the solution manifold ``y = Q = Theta``
write ``L0[T] = Q_a T_b - Q_b T_a``, so that the transferred operator is
``L = L0/delta``, and ``l = L0[delta]``.  ``L0`` is a derivation, so

    L[X/delta^s] = (delta L0[X] - s X l) / delta^(s+2),

and each step maps a numerator over ``delta^s`` to one over
``delta^(s+2)`` with products only.  From ``L[Theta_zz] = P/delta``,
``P = L0[Theta_zz]``, the steps ``s = 1, 3, 5`` give the numerator ``N`` of
``aj4`` over ``delta^3`` (the operator side of the ``aj4`` cross-check),
then ``M`` over ``delta^5``, then ``aj6`` over ``delta^7``.  Each sum of
products is one accumulation (``TruncSeries.dot``), every operand cut to
the known order the sum keeps; no term below that order changes.
"""

from __future__ import annotations

from collections import namedtuple

from .defining import THETA_VARS, XI_VARS, ComplexDefining, levi_delta, verify_reality
from .errors import DegenerateError, InternalCheckError
from .rational import GaussRat
from .report import (
    Report,
    StageClock,
    VERDICT_LEVI_DEGENERATE,
    VERDICT_NON_SPHERICAL,
    VERDICT_REALITY_VIOLATED,
    VERDICT_SPHERICAL,
)
from .series import TruncSeries
from .transfer import SolutionManifold


InvariantPair = namedtuple("InvariantPair", "i1 i2")
InvariantPair.__doc__ = "The two fundamental point invariants of a second-order ODE."


def tresse_invariants(f: TruncSeries) -> InvariantPair:
    """Compute ``I1 = F_yxyxyxyx`` and the second Tresse invariant

        I2 = DD(F_yxyx) - F_yx D(F_yxyx) - 4 D(F_yyx)
             + 6 F_yy - 3 F_y F_yxyx + 4 F_yx F_yyx

    with ``D = d_x + yx d_y + F d_yx`` acting on series in ``(x, y, yx)``,
    for the right-hand side ``F = f`` of ``y_xx = F(x, y, y_x)``.
    """
    yx = TruncSeries.variable("yx", f.vars, f.order)

    def total(t: TruncSeries) -> TruncSeries:
        parts = [(yx.truncate(t.order), t.derive("y"), 1), (f, t.derive("yx"), 1)]
        return t.derive("x") + TruncSeries.dot(parts)

    f_y = f.derive("y")
    f_yx = f.derive("yx")
    f_yy = f_y.derive("y")
    f_yyx = f_y.derive("yx")
    f_yxyx = f_yx.derive("yx")
    i1 = f_yxyx.derive("yx").derive("yx")
    d_yxyx = total(f_yxyx)
    i2 = TruncSeries.sum([
        total(d_yxyx),
        total(f_yyx).scale(GaussRat.of(-4)),
        f_yy.scale(GaussRat.of(6)),
        TruncSeries.dot([(f_yx, d_yxyx, -1), (f_y, f_yxyx, -3), (f_yx, f_yyx, 4)]),
    ])
    return InvariantPair(i1=i1, i2=i2)


def ode_invariants(m: SolutionManifold, order: int) -> InvariantPair:
    """``tresse_invariants(m.ode(order))``, computed once per order and kept on ``m``."""
    return m.kept(f"tresse@{order}", lambda: tresse_invariants(m.ode(order)))


def _aj4_direct(theta: TruncSeries) -> TruncSeries:
    """The numerator ``N = delta^3 aj4`` of the fourth-order closed formula,
    transcribed in Theta-partials.

    ``N`` is ``delta = t_zb t_zwb - t_wb t_zzb`` times the fourth-order
    ``t_zz..`` jets, plus the third-order terms, factored through the two
    contractions ``py`` and ``px`` of the shared squares of ``t_zb``, ``t_wb``
    with the second-order jets.  They are written out here, not read from
    the solution manifold, so the ``aj4`` cross-check compares two
    independent transcriptions.  Each sum of products is one ``dot``, every
    operand cut to the known order of the fourth-order jets: with
    ``delta(0) != 0``, ``t_zb`` or ``t_wb`` has a constant term, and ``N``
    keeps exactly that order.
    """
    t = theta
    t_z = t.derive("z")
    t_zb = t.derive("zb")
    t_wb = t.derive("wb")
    t_zzb = t_z.derive("zb")
    t_zwb = t_z.derive("wb")
    t_zbzb = t_zb.derive("zb")
    t_zbwb = t_zb.derive("wb")
    t_wbwb = t_wb.derive("wb")
    t_zz = t_z.derive("z")
    t_zzzb = t_zz.derive("zb")
    t_zzwb = t_zz.derive("wb")
    t_zzbzb = t_zzb.derive("zb")
    t_zzbwb = t_zzb.derive("wb")
    t_zwbwb = t_zwb.derive("wb")
    t_zzzbzb = t_zzzb.derive("zb")
    order = t_zzzbzb.order

    def dot(*parts):
        return TruncSeries.dot(parts, order)

    zb2 = dot((t_zb, t_zb, 1))
    wb2 = dot((t_wb, t_wb, 1))
    zbwb = dot((t_zb, t_wb, 1))  # enters each sum with weight -2
    delta = dot((t_zb, t_zwb, 1), (t_wb, t_zzb, -1))
    py = dot((zb2, t_zwbwb, 1), (zbwb, t_zzbwb, -2), (wb2, t_zzbzb, 1))
    px = dot((zb2, t_wbwb, 1), (zbwb, t_zbwb, -2), (wb2, t_zbzb, 1))
    fourth = dot((t_zzzbzb, wb2, 1), (t_zzzb.derive("wb"), zbwb, -2), (t_zzwb.derive("wb"), zb2, 1))
    return dot(
        (delta, fourth, 1),
        (py, dot((t_zzzb, t_wb, 1), (t_zzwb, t_zb, -1)), 1),
        (px, dot((t_zzzb, t_zwb, 1), (t_zzwb, t_zzb, -1)), -1),
    )


def _l0(qa: TruncSeries, qb: TruncSeries, t: TruncSeries) -> tuple:
    """The ``dot`` parts of ``L0[T] = qa T_b - qb T_a`` on the manifold
    space, and the known order of ``T_a``, the most the products keep."""
    _, av, bv = t.vars
    ta = t.derive(av)
    return [(qa, t.derive(bv), 1), (qb, ta, -1)], ta.order


def _step(op: tuple, x: TruncSeries, s: int) -> TruncSeries:
    """``delta L0[X] - s X l``, the numerator over ``delta^(s+2)`` of
    ``L[X/delta^s]``, in one ``dot``; ``op`` is ``(delta Q_a, delta Q_b,
    l)``.  ``X`` and ``l`` are cut to the order of ``T_a``: cut to the lower
    order of the head ``delta L0[X]``, they give the same sum."""
    delta_qa, delta_qb, ell = op
    parts, order = _l0(delta_qa, delta_qb, x)
    return TruncSeries.dot([*parts, (x, ell, -s)], order)


def _cleared_aj4(d: ComplexDefining) -> tuple:
    """``(N, op)``: ``N = delta^3 aj4`` and the operator ``op = (delta Q_a,
    delta Q_b, l)`` of the denominator-cleared recursion, kept on ``d.manifold``.

    The closed formula is checked against the step ``s = 1`` from
    ``P = L0[Theta_zz]`` on ``d.manifold``.  That step is the first to use
    the operator; it is built once, cut to the order the step keeps, and
    kept with ``N`` for ``aj6``.
    """
    m = d.manifold
    if not m.solvable:
        raise DegenerateError("Levi form vanishes at the origin")

    def cross_checked():
        num = _aj4_direct(d.theta)
        qa, qb, delta = m.d("a"), m.d("b"), m.delta()
        p = TruncSeries.dot(*_l0(qa, qb, m.d("xx")))
        order = p.derive(m.q.vars[1]).order
        parts = ([(delta, qa, 1)], [(delta, qb, 1)], _l0(qa, qb, delta)[0])  # l = L0[delta]
        op = tuple(TruncSeries.dot(part, order) for part in parts)
        diff = num - _step(op, p, 1)
        if not diff.is_zero():
            raise InternalCheckError("the two fourth-order formulas disagree")
        return num.truncate(diff.order), op

    return m.kept("aj4", cross_checked)


def aj4_numerator(d: ComplexDefining) -> TruncSeries:
    """The cross-checked numerator ``N = delta^3 aj4``; it vanishes iff
    ``aj4`` does, since ``delta`` is a unit."""
    return _cleared_aj4(d)[0]


def aj6(d: ComplexDefining) -> TruncSeries:
    """The denominator-cleared sixth-order obstruction ``delta^7 L^2[aj4]``.

    Two steps ``X/delta^s -> (delta L0[X] - s X l)/delta^(s+2)`` from
    ``N = delta^3 aj4``: ``M = delta L0[N] - 3 N l`` over ``delta^5``, then
    ``aj6 = delta L0[M] - 5 M l``, with no division.  Kept on ``d.manifold``.
    """
    num, op = _cleared_aj4(d)
    return d.manifold.kept("aj6", lambda: _step(op, _step(op, num, 3), 5))


def hermitian_witness(xi: TruncSeries) -> tuple | None:
    """``None`` when the rigid part is Hermitian symmetric, else the lowest
    term of ``Xi - conj(Xi)(zb, z)`` as a ``(monomial, coefficient)``
    witness over ``(z, zb)``."""
    defect = xi - xi.conjugate({"z": "zb", "zb": "z"}).reorder(XI_VARS)
    return defect.lowest_term()


KoppischReport = namedtuple(
    "KoppischReport", "i1_vanishes i2_vanishes dual_i1_vanishes dual_i2_vanishes order"
)
KoppischReport.__doc__ = """Vanishing pattern of the invariants of an ODE and of its dual,
all decided at one common achieved order."""


def koppisch_check(m: SolutionManifold, order: int) -> KoppischReport:
    """Check the duality exchange of the two invariants on a fixture.

    Computes ``I1, I2`` for the ODE of ``m`` and of its dual and asserts
    the two vanishing equivalences (``I1 = 0`` iff dual ``I2 = 0`` and
    vice versa).  The dual manifold is built at the full known order of
    ``Q`` so that both sides reach the same depth; vanishing is then
    decided at the common achieved order.
    """
    inv = ode_invariants(m, order)
    dual_inv = ode_invariants(m.dual(m.q.order), order)
    k = min(inv.i1.order, inv.i2.order, dual_inv.i1.order, dual_inv.i2.order)
    rep = KoppischReport(
        i1_vanishes=inv.i1.truncate(k).is_zero(),
        i2_vanishes=inv.i2.truncate(k).is_zero(),
        dual_i1_vanishes=dual_inv.i1.truncate(k).is_zero(),
        dual_i2_vanishes=dual_inv.i2.truncate(k).is_zero(),
        order=k,
    )
    if rep.i1_vanishes != rep.dual_i2_vanishes or rep.i2_vanishes != rep.dual_i1_vanishes:
        raise InternalCheckError(f"duality exchange of invariants fails: {rep}")
    return rep


def _violated(witness: tuple, order: int) -> Report:
    return Report(VERDICT_REALITY_VIOLATED, order, *witness)


def reality_stage(d: ComplexDefining, clock: StageClock) -> Report | None:
    """The ``reality-violated`` report of ``d``, or ``None``."""
    witness = clock("reality", lambda: verify_reality(d))
    return None if witness is None else _violated(witness, d.theta.order)


def levi_stage(d: ComplexDefining, clock: StageClock) -> Report | None:
    """The ``levi-degenerate`` report of ``d``, or ``None``."""
    delta, nondegenerate = clock("levi", lambda: levi_delta(d))
    if nondegenerate:
        return None
    return Report(VERDICT_LEVI_DEGENERATE, d.theta.order, delta_at_origin=delta.constant_term())


def _aj6_report(d: ComplexDefining) -> Report:
    """The spherical or non-spherical report of ``aj6``."""
    obstruction = aj6(d)
    delta0 = d.manifold.delta().constant_term()
    if obstruction.is_zero():
        return Report(VERDICT_SPHERICAL, obstruction.order, delta_at_origin=delta0)
    return Report(VERDICT_NON_SPHERICAL, obstruction.order, *obstruction.lowest_term(), delta0)


def verdict_tail(d: ComplexDefining, clock: StageClock, aj6_report=_aj6_report) -> Report:
    """The stages after reality: Levi form, ``aj4`` with its cross-check,
    then ``aj6`` with its report, ``aj6_report(d)``, so that the stages
    time all of the work.  ``aj4`` and ``aj6`` are kept on ``d.manifold``."""
    degenerate = levi_stage(d, clock)
    if degenerate is not None:
        return degenerate
    clock("aj4", lambda: _cleared_aj4(d))  # timed apart from aj6
    return clock("aj6", lambda: aj6_report(d))


def sphericality_verdict(d: ComplexDefining, clock: StageClock | None = None) -> Report:
    """Run the verdict pipeline: reality, Levi form, sixth-order obstruction.

    Total on its defining-function input: every failure mode becomes a
    verdict, never an exception.  ``tested_order`` reports the order the
    final series is actually exact to after derivative losses.  The
    stages are timed by ``clock``.
    """
    clock = clock or StageClock()
    return reality_stage(d, clock) or verdict_tail(d, clock)


def rigid_verdict(xi: TruncSeries, clock: StageClock | None = None) -> Report:
    """The verdict for the rigid surface ``w = -wb + Xi(z, zb)``.

    The reality stage checks that ``Xi`` is Hermitian.  The tail runs on
    ``Theta = -wb + Xi>=2`` (the terms of degree 2 and up: the rest is a
    holomorphic change of coordinates away, and neither the Levi factor
    nor the seven-term formula reads it), formed in the Levi stage.  There
    ``delta = u = Xi_z,zb`` and ``aj6 = u^7 rigid_invariant(Xi)``, with no
    ``wb``, so a witness maps back to ``(z, zb)`` with its coefficient
    divided by ``u(0)^7``.
    """
    clock = clock or StageClock()
    witness = clock("reality", lambda: hermitian_witness(xi))
    if witness is not None:
        return _violated(witness, xi.order)
    d = clock("levi", lambda: ComplexDefining(_rigid_theta(xi)))
    return verdict_tail(d, clock, _rigid_report)


def _rigid_report(d: ComplexDefining) -> Report:
    """``_aj6_report`` with its witness mapped back to ``(z, zb)``."""
    report = _aj6_report(d)
    if report.verdict == VERDICT_NON_SPHERICAL:
        u7 = report.delta_at_origin.re ** 7  # real, since Xi is Hermitian
        c = report.witness_coefficient
        report.witness_monomial = report.witness_monomial[:2]
        report.witness_coefficient = GaussRat(c.re / u7, c.im / u7)
    return report


def _rigid_theta(xi: TruncSeries) -> TruncSeries:
    """``-wb + Xi>=2`` over ``(z, zb, wb)``."""
    k = xi.order
    high = xi - xi.homogeneous_part(0, k) - xi.homogeneous_part(1, k)
    return high.extend(THETA_VARS) - TruncSeries.variable("wb", THETA_VARS, k)
