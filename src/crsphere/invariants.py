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
order is the sphericality verdict at that order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .defining import XI_VARS, ComplexDefining, levi_delta, verify_reality
from .errors import CrsError, DegenerateError, InternalCheckError, RealityError
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
from .transfer import (
    OdeRhs,
    SolutionManifold,
    apply_dyx,
    associated_ode,
)


@dataclass(frozen=True)
class InvariantPair:
    """The two fundamental point invariants of a second-order ODE."""

    i1: TruncSeries
    i2: TruncSeries


def tresse_invariants(ode: OdeRhs) -> InvariantPair:
    """Compute ``I1 = F_yxyxyxyx`` and the second Tresse invariant

        I2 = DD(F_yxyx) - F_yx D(F_yxyx) - 4 D(F_yyx)
             + 6 F_yy - 3 F_y F_yxyx + 4 F_yx F_yyx

    with ``D = d_x + yx d_y + F d_yx`` acting on series in ``(x, y, yx)``.
    """
    f = ode.f
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
    """The fourth-order closed formula, transcribed in Theta-partials.

    Numerator over ``delta^3`` with ``delta = t_zb t_zwb - t_wb t_zzb``:
    ``delta`` times the fourth-order ``t_zz..`` jets, plus the third-order
    terms, factored through the two contractions ``py`` and ``px`` of the
    shared squares of ``t_zb``, ``t_wb`` with the second-order jets.
    They are written out here, not read from the solution manifold, so the
    ``aj4`` cross-check compares two independent transcriptions.
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
    two = GaussRat.of(2)

    zb2 = t_zb * t_zb
    wb2 = t_wb * t_wb
    zbwb2 = two * (t_zb * t_wb)

    delta = _det2(t_zb, t_wb, t_zzb, t_zwb)
    py = zb2 * t_zwbwb - zbwb2 * t_zzbwb + wb2 * t_zzbzb
    px = zb2 * t_wbwb - zbwb2 * t_zbwb + wb2 * t_zbzb
    num = (
        delta
        * (
            t_zzzb.derive("zb") * wb2
            - t_zzzb.derive("wb") * zbwb2
            + t_zzwb.derive("wb") * zb2
        )
        + py * _det2(t_zzzb, t_zzwb, t_zb, t_wb)
        - px * _det2(t_zzzb, t_zzwb, t_zzb, t_zwb)
    )
    return num.div(delta.pow(3))


def _require_levi(d: ComplexDefining) -> None:
    _, nondegenerate = levi_delta(d)
    if not nondegenerate:
        raise DegenerateError("Levi form vanishes at the origin")


def aj4(d: ComplexDefining) -> TruncSeries:
    """The fourth-order obstruction, kept on ``d``.

    The closed formula is checked against the ``d/d(y_x)`` operator of
    ``d.manifold`` applied twice to ``Theta_zz``.
    """
    if d.aj4 is None:
        _require_levi(d)
        m = d.manifold
        direct = _aj4_direct(d.theta)
        t_zz = d.theta.derive("z").derive("z")
        diff = direct - apply_dyx(m, apply_dyx(m, t_zz))
        if not diff.is_zero():
            raise InternalCheckError("the two fourth-order formulas disagree")
        d.aj4 = direct.truncate(diff.order)
    return d.aj4


def aj6(d: ComplexDefining) -> TruncSeries:
    """The denominator-cleared sixth-order obstruction ``delta^7 L^2[aj4]``."""
    _require_levi(d)
    m = d.manifold
    fourth = aj4(d)
    second = apply_dyx(m, apply_dyx(m, fourth))
    return m.delta().pow(7) * second


RIGID_COEFFS = (1, -6, -4, -1, 15, 10, -15)


def rigid_invariant(xi: TruncSeries) -> TruncSeries:
    """The rigid seven-term obstruction for ``w = -wb + Xi(z, zb)``.

    Terms over powers 4..7 of the unit ``u = Xi_z,zb``::

        + Xi_zzbbbb / u^4
        - 6 Xi_zzbbb Xi_zbb / u^5  - 4 Xi_zzbb Xi_zbbb / u^5  - Xi_zzb Xi_zbbbb / u^5
        + 15 Xi_zzbb Xi_zbb^2 / u^6  + 10 Xi_zbbb Xi_zzb Xi_zbb / u^6
        - 15 Xi_zzb Xi_zbb^3 / u^7

    where the suffix letters count ``z`` then ``zb`` derivatives.
    """
    if xi.vars != XI_VARS:
        raise CrsError(f"rigid part must use variables {XI_VARS}, got {xi.vars}")
    if not xi.conjugate({"z": "zb", "zb": "z"}).reorder(XI_VARS) == xi:
        raise RealityError("rigid part is not Hermitian symmetric")

    def dz(s, n):
        for _ in range(n):
            s = s.derive("z")
        return s

    def dzb(s, n):
        for _ in range(n):
            s = s.derive("zb")
        return s

    u = dzb(dz(xi, 1), 1)
    if u.constant_term().is_zero():
        raise DegenerateError("Xi_z,zb vanishes at the origin")
    numerators = (
        dzb(dz(xi, 2), 4),
        dzb(dz(xi, 2), 3) * dzb(dz(xi, 1), 2),
        dzb(dz(xi, 2), 2) * dzb(dz(xi, 1), 3),
        dzb(dz(xi, 2), 1) * dzb(dz(xi, 1), 4),
        dzb(dz(xi, 2), 2) * dzb(dz(xi, 1), 2).pow(2),
        dzb(dz(xi, 1), 3) * dzb(dz(xi, 2), 1) * dzb(dz(xi, 1), 2),
        dzb(dz(xi, 2), 1) * dzb(dz(xi, 1), 2).pow(3),
    )
    powers = (4, 5, 5, 5, 6, 6, 7)
    total = None
    for coeff, num, power in zip(RIGID_COEFFS, numerators, powers):
        term = num.scale(GaussRat.of(coeff)).div(u.pow(power))
        total = term if total is None else total + term
    return total


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
    inv = tresse_invariants(associated_ode(m, order))
    dual = m.dual(m.q.order)
    dual_inv = tresse_invariants(associated_ode(dual, order))
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


def sphericality_verdict(
    d: ComplexDefining, order: int, clock: Optional[StageClock] = None
) -> Report:
    """Run the verdict pipeline: reality, Levi form, sixth-order obstruction.

    Total on its defining-function input: every failure mode becomes a
    verdict, never an exception.  ``tested_order`` reports the order the
    final series is actually exact to after derivative losses.  The
    stages are timed by ``clock`` (the report's timings are its map).
    """
    if clock is None:
        clock = StageClock()
    timings = clock.timings

    # without truncation the caller's ``d`` is reused, keeping what is computed here
    work = d
    if d.theta.order > order:
        work = ComplexDefining.from_theta(d.theta.truncate(order))

    witness = clock("reality", lambda: verify_reality(work))
    if witness is not None:
        mono, coeff = witness
        return Report(
            verdict=VERDICT_REALITY_VIOLATED,
            tested_order=work.theta.order,
            witness_monomial=mono,
            witness_coefficient=coeff,
            delta_at_origin=None,
            timings=timings,
        )

    delta, nondegenerate = clock("levi", lambda: levi_delta(work))
    delta0 = delta.constant_term()
    if not nondegenerate:
        return Report(
            verdict=VERDICT_LEVI_DEGENERATE,
            tested_order=work.theta.order,
            delta_at_origin=delta0,
            timings=timings,
        )

    clock("aj4", lambda: aj4(work))  # kept on ``work``; timed apart from aj6
    obstruction = clock("aj6", lambda: aj6(work))
    if obstruction.is_zero():
        return Report(
            verdict=VERDICT_SPHERICAL,
            tested_order=obstruction.order,
            delta_at_origin=delta0,
            timings=timings,
        )
    mono, coeff = obstruction.lowest_term()
    return Report(
        verdict=VERDICT_NON_SPHERICAL,
        tested_order=obstruction.order,
        witness_monomial=mono,
        witness_coefficient=coeff,
        delta_at_origin=delta0,
        timings=timings,
    )
