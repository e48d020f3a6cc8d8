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
  rigid part with integer coefficients ``+1, -6, -4, -1, +15, +10, -15``.

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
then ``M`` over ``delta^5``, then ``aj6`` over ``delta^7``.  Every operand
is cut to the known order its product keeps, which the known-order rules
of the series give; no term below that order changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .defining import THETA_VARS, XI_VARS, ComplexDefining, levi_delta, verify_reality
from .errors import CrsError, DegenerateError, InternalCheckError, RealityError
from .rational import ONE, GaussRat
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


@dataclass(frozen=True)
class InvariantPair:
    """The two fundamental point invariants of a second-order ODE."""

    i1: TruncSeries
    i2: TruncSeries


def tresse_invariants(f: TruncSeries) -> InvariantPair:
    """Compute ``I1 = F_yxyxyxyx`` and the second Tresse invariant

        I2 = DD(F_yxyx) - F_yx D(F_yxyx) - 4 D(F_yyx)
             + 6 F_yy - 3 F_y F_yxyx + 4 F_yx F_yyx

    with ``D = d_x + yx d_y + F d_yx`` acting on series in ``(x, y, yx)``,
    for the right-hand side ``F = f`` of ``y_xx = F(x, y, y_x)``.
    """
    yx = TruncSeries.variable("yx", f.vars, f.order)

    def total(t: TruncSeries) -> TruncSeries:
        return t.derive("x") + yx.truncate(t.order) * t.derive("y") + f * t.derive("yx")

    f_y = f.derive("y")
    f_yx = f.derive("yx")
    f_yy = f_y.derive("y")
    f_yyx = f_y.derive("yx")
    f_yxyx = f_yx.derive("yx")
    i1 = f_yxyx.derive("yx").derive("yx")
    i2 = (
        total(total(f_yxyx))
        - f_yx * total(f_yxyx)
        - GaussRat.of(4) * total(f_yyx)
        + GaussRat.of(6) * f_yy
        - GaussRat.of(3) * (f_y * f_yxyx)
        + GaussRat.of(4) * (f_yx * f_yyx)
    )
    return InvariantPair(i1=i1, i2=i2)


def _det2(a: TruncSeries, b: TruncSeries, c: TruncSeries, d: TruncSeries) -> TruncSeries:
    return a * d - b * c


def _aj4_direct(theta: TruncSeries) -> TruncSeries:
    """The numerator ``N = delta^3 aj4`` of the fourth-order closed formula,
    transcribed in Theta-partials.

    ``N`` is ``delta = t_zb t_zwb - t_wb t_zzb`` times the fourth-order
    ``t_zz..`` jets, plus the third-order terms, factored through the two
    contractions ``py`` and ``px`` of the shared squares of ``t_zb``, ``t_wb``
    with the second-order jets.  They are written out here, not read from
    the solution manifold, so the ``aj4`` cross-check compares two
    independent transcriptions.  Every partial is cut to the known order of
    the fourth-order jets, the order ``N`` keeps.
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
    t_zzzbwb = t_zzzb.derive("wb")
    t_zzwbwb = t_zzwb.derive("wb")
    order = t_zzzbzb.order
    (
        t_zb, t_wb, t_zzb, t_zwb, t_zbzb, t_zbwb, t_wbwb,
        t_zzzb, t_zzwb, t_zzbzb, t_zzbwb, t_zwbwb, t_zzzbwb, t_zzwbwb,
    ) = (
        s.truncate(order)
        for s in (
            t_zb, t_wb, t_zzb, t_zwb, t_zbzb, t_zbwb, t_wbwb,
            t_zzzb, t_zzwb, t_zzbzb, t_zzbwb, t_zwbwb, t_zzzbwb, t_zzwbwb,
        )
    )
    two = GaussRat.of(2)

    zb2 = t_zb * t_zb
    wb2 = t_wb * t_wb
    zbwb2 = two * (t_zb * t_wb)

    delta = _det2(t_zb, t_wb, t_zzb, t_zwb)
    py = zb2 * t_zwbwb - zbwb2 * t_zzbwb + wb2 * t_zzbzb
    px = zb2 * t_wbwb - zbwb2 * t_zbwb + wb2 * t_zbzb
    return (
        delta * (t_zzzbzb * wb2 - t_zzzbwb * zbwb2 + t_zzwbwb * zb2)
        + py * _det2(t_zzzb, t_zzwb, t_zb, t_wb)
        - px * _det2(t_zzzb, t_zzwb, t_zzb, t_zwb)
    )


def _l0(qa: TruncSeries, qb: TruncSeries, t: TruncSeries, order: Optional[int] = None):
    """``qa T_b - qb T_a`` on the manifold space, known to ``order``: by
    default the known order of ``T_a``, the most the products keep.  Every
    operand is cut to ``order`` first."""
    _, av, bv = t.vars
    ta, tb = t.derive(av), t.derive(bv)
    if order is None:
        order = ta.order
    return qa.truncate(order) * tb.truncate(order) - qb.truncate(order) * ta.truncate(order)


def _step(op: tuple, x: TruncSeries, s: GaussRat) -> TruncSeries:
    """``delta L0[X] - s X l``, the numerator over ``delta^(s+2)`` of
    ``L[X/delta^s]``; ``op`` is ``(delta Q_a, delta Q_b, l)``."""
    delta_qa, delta_qb, ell = op
    head = _l0(delta_qa, delta_qb, x)
    order = head.order
    return head - (x.truncate(order) * ell.truncate(order)).scale(s)


_THREE = GaussRat.of(3)
_FIVE = GaussRat.of(5)


def _aj4_numerator(d: ComplexDefining) -> TruncSeries:
    """``N = delta^3 aj4``, kept on ``d``.

    The closed formula is checked against the step ``s = 1`` from
    ``P = L0[Theta_zz]`` on ``d.manifold``.  That step is the first to use
    the operator ``(delta Q_a, delta Q_b, l)``; it is built once, cut to
    the order the step keeps, and kept on ``d`` for ``aj6``.
    """
    if d.aj4_numerator is None:
        m = d.manifold
        if not m.solvable:
            raise DegenerateError("Levi form vanishes at the origin")
        num = _aj4_direct(d.theta)
        qa, qb, delta = m.d("a"), m.d("b"), m.delta()
        p = _l0(qa, qb, m.d("xx"))
        order = p.derive(m.q.vars[1]).order
        ell = _l0(qa, qb, delta, order)
        delta = delta.truncate(order)
        d.cleared_operator = (delta * qa.truncate(order), delta * qb.truncate(order), ell)
        diff = num - _step(d.cleared_operator, p, ONE)
        if not diff.is_zero():
            raise InternalCheckError("the two fourth-order formulas disagree")
        d.aj4_numerator = num.truncate(diff.order)
    return d.aj4_numerator


def aj4(d: ComplexDefining) -> TruncSeries:
    """The fourth-order obstruction ``N / delta^3``.

    The numerator ``N`` is cross-checked and kept on ``d``; this division
    is made only for a caller that asks for the series itself (``N``
    vanishes with it, since ``delta`` is a unit).
    """
    return _aj4_numerator(d).div(d.manifold.delta().pow(3))


def aj6(d: ComplexDefining) -> TruncSeries:
    """The denominator-cleared sixth-order obstruction ``delta^7 L^2[aj4]``.

    Two steps ``X/delta^s -> (delta L0[X] - s X l)/delta^(s+2)`` from
    ``N = delta^3 aj4``: ``M = delta L0[N] - 3 N l`` over ``delta^5``, then
    ``aj6 = delta L0[M] - 5 M l``, with no division.
    """
    num = _aj4_numerator(d)
    op = d.cleared_operator
    return _step(op, _step(op, num, _THREE), _FIVE)


def hermitian_witness(xi: TruncSeries) -> Optional[tuple]:
    """``None`` when the rigid part is Hermitian symmetric, else the lowest
    term of ``Xi - conj(Xi)(zb, z)`` as a ``(monomial, coefficient)``
    witness over ``(z, zb)``."""
    defect = xi - xi.conjugate({"z": "zb", "zb": "z"}).reorder(XI_VARS)
    return defect.lowest_term()


def rigid_invariant(xi: TruncSeries) -> TruncSeries:
    """The rigid seven-term obstruction for ``w = -wb + Xi(z, zb)``.

    Terms over powers 4..7 of the unit ``u = Xi_z,zb``::

        + Xi_zzbbbb / u^4
        - 6 Xi_zzbbb Xi_zbb / u^5  - 4 Xi_zzbb Xi_zbbb / u^5  - Xi_zzb Xi_zbbbb / u^5
        + 15 Xi_zzbb Xi_zbb^2 / u^6  + 10 Xi_zbbb Xi_zzb Xi_zbb / u^6
        - 15 Xi_zzb Xi_zbb^3 / u^7

    where the suffix letters count ``z`` then ``zb`` derivatives.  The
    numerators ``t4 .. t7`` over each power are summed in Horner form,
    ``((t4 u + t5) u + t6) u + t7``, and divided once by ``u^7``.  Every
    operand is cut to the known order of ``Xi_zzbbbb``, the order the sum
    keeps (to 1 at least).
    """
    if xi.vars != XI_VARS:
        raise CrsError(f"rigid part must use variables {XI_VARS}, got {xi.vars}")
    if hermitian_witness(xi) is not None:
        raise RealityError("rigid part is not Hermitian symmetric")

    # z1[j] and z2[j]: one and two z-derivatives, then j zb-derivatives
    z1 = [xi.derive("z")]
    z2 = [z1[0].derive("z")]
    for _ in range(4):
        z1.append(z1[-1].derive("zb"))
        z2.append(z2[-1].derive("zb"))
    u = z1[1]
    if u.constant_term().is_zero():
        raise DegenerateError("Xi_z,zb vanishes at the origin")
    order = max(z2[4].order, 1)  # u keeps its constant term: it is the divisor
    z1 = [s.truncate(order) for s in z1]
    z2 = [s.truncate(order) for s in z2]
    u = z1[1]
    square = z1[2] * z1[2]
    numerators = (  # (weight, numerator) over u^4, u^5, u^6 and u^7
        ((1, z2[4]),),
        ((-6, z2[3] * z1[2]), (-4, z2[2] * z1[3]), (-1, z2[1] * z1[4])),
        ((15, z2[2] * square), (10, z1[3] * z2[1] * z1[2])),
        ((-15, z2[1] * (square * z1[2])),),
    )
    total = None
    for group in numerators:
        part = TruncSeries.sum([num.scale(GaussRat.of(c)) for c, num in group])
        total = part if total is None else total * u + part
    return total.div(u.pow(7))


@dataclass(frozen=True)
class KoppischReport:
    """Vanishing pattern of the invariants of an ODE and of its dual,
    all decided at one common achieved order."""

    i1_vanishes: bool
    i2_vanishes: bool
    dual_i1_vanishes: bool
    dual_i2_vanishes: bool
    order: int


def koppisch_check(m: SolutionManifold, order: int) -> KoppischReport:
    """Check the duality exchange of the two invariants on a fixture.

    Computes ``I1, I2`` for the ODE of ``m`` and of its dual and asserts
    the two vanishing equivalences (``I1 = 0`` iff dual ``I2 = 0`` and
    vice versa).  The dual manifold is built at the full known order of
    ``Q`` so that both sides reach the same depth; vanishing is then
    decided at the common achieved order.
    """
    inv = tresse_invariants(m.ode(order))
    dual_inv = tresse_invariants(m.dual(m.q.order).ode(order))
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


def reality_stage(d: ComplexDefining, clock: StageClock) -> Optional[Report]:
    """The ``reality-violated`` report of ``d``, or ``None``."""
    witness = clock("reality", lambda: verify_reality(d))
    return None if witness is None else _violated(witness, d.theta.order)


def levi_stage(d: ComplexDefining, clock: StageClock) -> Optional[Report]:
    """The ``levi-degenerate`` report of ``d``, or ``None``."""
    delta, nondegenerate = clock("levi", lambda: levi_delta(d))
    if nondegenerate:
        return None
    return Report(VERDICT_LEVI_DEGENERATE, d.theta.order, delta_at_origin=delta.constant_term())


def verdict_tail(d: ComplexDefining, clock: StageClock) -> Report:
    """The stages after reality: Levi form, ``aj4`` with its cross-check,
    ``aj6``, and the report."""
    degenerate = levi_stage(d, clock)
    if degenerate is not None:
        return degenerate
    delta0 = d.manifold.delta().constant_term()
    clock("aj4", lambda: _aj4_numerator(d))  # kept on ``d``; timed apart from aj6
    obstruction = clock("aj6", lambda: aj6(d))
    if obstruction.is_zero():
        return Report(VERDICT_SPHERICAL, obstruction.order, delta_at_origin=delta0)
    return Report(VERDICT_NON_SPHERICAL, obstruction.order, *obstruction.lowest_term(), delta0)


def sphericality_verdict(
    d: ComplexDefining, order: int, clock: Optional[StageClock] = None
) -> Report:
    """Run the verdict pipeline: reality, Levi form, sixth-order obstruction.

    Total on its defining-function input: every failure mode becomes a
    verdict, never an exception.  ``tested_order`` reports the order the
    final series is actually exact to after derivative losses.  The
    stages are timed by ``clock``.
    """
    clock = clock or StageClock()
    # without truncation the caller's ``d`` is reused, keeping what is computed here
    work = d
    if d.theta.order > order:
        work = ComplexDefining.from_theta(d.theta.truncate(order))
    return reality_stage(work, clock) or verdict_tail(work, clock)


def rigid_verdict(xi: TruncSeries, clock: Optional[StageClock] = None) -> Report:
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
    d = clock("levi", lambda: ComplexDefining(_rigid_theta(xi), rigid=True))
    report = verdict_tail(d, clock)
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
