"""Reference obstructions for differential tests: the division-based formulas.

``reference_aj4`` and ``reference_aj6`` divide by the Levi determinant
``delta`` at every step and clear the powers afterwards: the closed formula
``N / delta^3``, cross-checked against the transferred operator ``L`` applied
twice to ``Theta_zz``, and ``delta^7 L^2[aj4]``.  ``reference_rigid_invariant``
sums the seven rigid terms, each divided by its own power of ``u``.  They
keep no obstruction on the defining function, so each call recomputes.
``aj4`` divides the numerator the verdict keeps, for the tests that want
the series itself.

``reference_cleared_chain`` is the verdict's division-free recursion as it
was written before each sum of products became one ``dot``: the closed
formula, ``L0`` and the step from products, ``truncate`` and sums, each
product a series of its own.
"""

import crsphere.invariants as inv
from crsphere.defining import XI_VARS, levi_delta
from crsphere.errors import CrsError, DegenerateError, InternalCheckError, RealityError
from crsphere.rational import ONE, GaussRat
from crsphere.selftest import apply_dyx
from crsphere.series import TruncSeries

RIGID_COEFFS = (1, -6, -4, -1, 15, 10, -15)


def aj4(d):
    """The fourth-order obstruction ``N / delta^3``: the numerator ``N`` is
    the verdict's, cross-checked and kept on ``d``."""
    return inv._aj4_numerator(d).div(d.manifold.delta().pow(3))


def _det2(a, b, c, d):
    return a * d - b * c


def reference_direct_numerator(theta: TruncSeries, cut: bool = True) -> tuple:
    """The closed formula's numerator ``N = delta^3 aj4`` and ``delta``, in
    Theta-partials; with ``cut``, every partial is first cut to the known
    order of the fourth-order jets."""
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
    if cut:
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
    num = (
        delta * (t_zzzbzb * wb2 - t_zzzbwb * zbwb2 + t_zzwbwb * zb2)
        + py * _det2(t_zzzb, t_zzwb, t_zb, t_wb)
        - px * _det2(t_zzzb, t_zzwb, t_zzb, t_zwb)
    )
    return num, delta


def reference_aj4_direct(theta: TruncSeries) -> TruncSeries:
    """The fourth-order closed formula in Theta-partials, over ``delta^3``."""
    num, delta = reference_direct_numerator(theta, cut=False)
    return num.div(delta.pow(3))


def reference_aj4(d) -> TruncSeries:
    """The closed formula, checked against ``L^2[Theta_zz]``."""
    _, nondegenerate = levi_delta(d)
    if not nondegenerate:
        raise DegenerateError("Levi form vanishes at the origin")
    m = d.manifold
    direct = reference_aj4_direct(d.theta)
    t_zz = d.theta.derive("z").derive("z")
    diff = direct - apply_dyx(m, apply_dyx(m, t_zz))
    if not diff.is_zero():
        raise InternalCheckError("the two fourth-order formulas disagree")
    return direct.truncate(diff.order)


def reference_aj6(d) -> TruncSeries:
    """``delta^7 L^2[aj4]``, dividing by ``delta`` at each ``L``."""
    m = d.manifold
    fourth = reference_aj4(d)
    second = apply_dyx(m, apply_dyx(m, fourth))
    return m.delta().pow(7) * second


def reference_rigid_invariant(xi: TruncSeries) -> TruncSeries:
    """The seven rigid terms over powers 4..7 of ``u = Xi_z,zb``, one
    ``pow`` and one ``div`` per term."""
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


def reference_l0(qa, qb, t, order=None):
    """``qa T_b - qb T_a``, every operand cut to ``order`` (by default the
    known order of ``T_a``)."""
    _, av, bv = t.vars
    ta, tb = t.derive(av), t.derive(bv)
    if order is None:
        order = ta.order
    return qa.truncate(order) * tb.truncate(order) - qb.truncate(order) * ta.truncate(order)


def reference_step(op, x, s: GaussRat):
    """``delta L0[X] - s X l``, with ``X`` and ``l`` cut to the head's order."""
    delta_qa, delta_qb, ell = op
    head = reference_l0(delta_qa, delta_qb, x)
    order = head.order
    return head - (x.truncate(order) * ell.truncate(order)).scale(s)


def reference_cleared_chain(d):
    """``(closed formula, N, cleared operator, M, aj6)`` of ``d``, with
    ``delta`` formed here as ``Q_a Q_xb - Q_b Q_xa``."""
    m = d.manifold
    direct, _ = reference_direct_numerator(d.theta)
    qa, qb = m.d("a"), m.d("b")
    delta = _det2(qa, qb, m.d("xa"), m.d("xb"))
    p = reference_l0(qa, qb, m.d("xx"))
    order = p.derive(m.q.vars[1]).order
    ell = reference_l0(qa, qb, delta, order)
    delta = delta.truncate(order)
    op = (delta * qa.truncate(order), delta * qb.truncate(order), ell)
    diff = direct - reference_step(op, p, ONE)
    if not diff.is_zero():
        raise InternalCheckError("the two fourth-order formulas disagree")
    num = direct.truncate(diff.order)
    m5 = reference_step(op, num, GaussRat.of(3))
    return direct, num, op, m5, reference_step(op, m5, GaussRat.of(5))
