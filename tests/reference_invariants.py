"""Reference obstructions for differential tests: the division-based formulas.

``reference_aj4`` and ``reference_aj6`` divide by the Levi determinant
``delta`` at every step and clear the powers afterwards: the closed formula
``N / delta^3``, cross-checked against the transferred operator ``L`` applied
twice to ``Theta_zz``, and ``delta^7 L^2[aj4]``.  ``reference_rigid_invariant``
sums the seven rigid terms, each divided by its own power of ``u``.  They
keep no obstruction on the defining function, so each call recomputes.
"""

from crsphere.defining import XI_VARS, levi_delta
from crsphere.errors import CrsError, DegenerateError, InternalCheckError, RealityError
from crsphere.rational import GaussRat
from crsphere.selftest import apply_dyx
from crsphere.series import TruncSeries

RIGID_COEFFS = (1, -6, -4, -1, 15, 10, -15)


def _det2(a, b, c, d):
    return a * d - b * c


def reference_aj4_direct(theta: TruncSeries) -> TruncSeries:
    """The fourth-order closed formula in Theta-partials, over ``delta^3``."""
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

