"""The paper audit and the pinned-corpus self test.

Only ``self-test`` and the tests load this module.  It audits the paper's
jet-transfer formulas: the first-order transfer, the transferred ``d/dx``,
``d/dy`` and ``d/d(y_x)`` (``apply_dyx`` is kept independent of the
verdict's ``invariants._l0``), the checked second-jet lemma, and the
expanded third-order transfer as a static term table (``THIRD_JET_TABLE``)
whose one normative check is exact agreement with the repeated first-order
operator.  The rigid seven-term formula ``rigid_invariant`` is the route
the corpus compares with the verdict's.  ``run_self_test`` runs the
fixture corpus with every cross-pipeline assertion: a disagreement raises
``InternalCheckError`` (an implementation bug, exit code 2 in the CLI),
never a math verdict.
"""

from __future__ import annotations

from collections import namedtuple

from . import fixtures
from .defining import THETA_VARS, XI_VARS, ComplexDefining, levi_delta, verify_reality
from .errors import (
    ArityError, CrsError, DegenerateError, InternalCheckError, NonUnitError, RealityError
)
from .invariants import aj6, hermitian_witness, koppisch_check, ode_invariants
from .parsing import parse_series
from .rational import GaussRat
from .series import TruncSeries
from .transfer import SolutionManifold


TransferOps = namedtuple("TransferOps", "delta a_x b_x a_y b_y a_yx b_yx")
TransferOps.__doc__ = "The six first-order transfer coefficients of the parameter map."


def _unit_delta(m: SolutionManifold) -> TruncSeries:
    delta = m.delta()
    if delta.constant_term().is_zero():
        raise NonUnitError("the parameter Jacobian vanishes at the origin")
    return delta


def first_jet_transfer(m: SolutionManifold) -> TransferOps:
    """The six derivatives of ``A`` and ``B`` in terms of the second jet of Q:

        A_x  = (Q_b Q_xx - Q_x Q_xb) / delta    B_x  = (Q_x Q_xa - Q_a Q_xx) / delta
        A_y  = Q_xb / delta                     B_y  = -Q_xa / delta
        A_yx = -Q_b / delta                     B_yx = Q_a / delta
    """
    delta = _unit_delta(m)
    qa, qb, qx = m.d("a"), m.d("b"), m.d("x")
    qxa, qxb, qxx = m.d("xa"), m.d("xb"), m.d("xx")
    return TransferOps(
        delta=delta,
        a_x=TruncSeries.dot([(qb, qxx, 1), (qx, qxb, -1)]).div(delta),
        b_x=TruncSeries.dot([(qx, qxa, 1), (qa, qxx, -1)]).div(delta),
        a_y=qxb.div(delta),
        b_y=(-qxa).div(delta),
        a_yx=(-qb).div(delta),
        b_yx=qa.div(delta),
    )


def _check_t(m: SolutionManifold, t: TruncSeries) -> None:
    if t.vars != m.q.vars:
        raise ArityError(f"transferred function must live in the manifold space {m.q.vars}")


def apply_dyx(m: SolutionManifold, t: TruncSeries) -> TruncSeries:
    """Transfer of ``d/d(y_x)``:  ``(-Q_b T_a + Q_a T_b) / delta``."""
    _check_t(m, t)
    delta = _unit_delta(m)
    xv, av, bv = m.q.vars
    return TruncSeries.dot([(m.d("a"), t.derive(bv), 1), (m.d("b"), t.derive(av), -1)]).div(delta)


def apply_dy(m: SolutionManifold, t: TruncSeries) -> TruncSeries:
    """Transfer of ``d/dy``:  ``(Q_xb T_a - Q_xa T_b) / delta``."""
    _check_t(m, t)
    delta = _unit_delta(m)
    xv, av, bv = m.q.vars
    return TruncSeries.dot([(m.d("xb"), t.derive(av), 1), (m.d("xa"), t.derive(bv), -1)]).div(delta)


def apply_dx(m: SolutionManifold, t: TruncSeries) -> TruncSeries:
    """Transfer of ``d/dx``: plain ``T_x`` plus the ``A_x``/``B_x`` drift."""
    _check_t(m, t)
    ops = first_jet_transfer(m)
    xv, av, bv = m.q.vars
    return t.derive(xv) + TruncSeries.dot([(ops.a_x, t.derive(av), 1), (ops.b_x, t.derive(bv), 1)])


def total_deriv_check(m: SolutionManifold, t: TruncSeries):
    """Verify that ``D = d_x + y_x d_y + F d_yx`` transfers to plain ``d_x``.

    Returns ``None`` on success or the lowest nonzero term of the defect.
    """
    _check_t(m, t)
    xv = m.q.vars[0]
    lhs = apply_dx(m, t) + TruncSeries.dot(
        [(m.d("x"), apply_dy(m, t), 1), (m.d("xx"), apply_dyx(m, t), 1)]
    )
    return (lhs - t.derive(xv)).lowest_term()


def second_jet_transfer(m: SolutionManifold, t: TruncSeries):
    """The three second-order transfers ``(G_yxyx, G_yyx, G_yy)``.

    Each is computed from its closed determinant formula and re-derived by
    composing the first-order operators; disagreement means a transcription
    bug, so it raises ``InternalCheckError``.  This is the checked
    closed-form lemma, run by ``third_jet_check``, ``self-test`` and the
    tests; the verdict does not use it.
    """
    _check_t(m, t)
    delta = _unit_delta(m)
    xv, av, bv = m.q.vars
    qa, qb = m.d("a"), m.d("b")
    qxa, qxb = m.d("xa"), m.d("xb")
    ta, tb = t.derive(av), t.derive(bv)
    taa, tab, tbb = ta.derive(av), ta.derive(bv), tb.derive(bv)
    det = m.det
    dot = TruncSeries.dot

    d2 = delta * delta
    d3 = d2 * delta

    def closed(c_aa, c_ab, c_bb):
        # each ``c`` a (series, factor) coefficient of T_aa, T_ab or T_bb; the
        # T_a and T_b brackets contract them with det(b|.) and -det(a|.)
        cs = ((c_aa, taa, "aa"), (c_ab, tab, "ab"), (c_bb, tbb, "bb"))
        head = dot((c, tt, k) for (c, k), tt, _ in cs).div(d2)
        wa = dot((c, det("b", w), k) for (c, k), _, w in cs)
        wb_ = dot((c, det("a", w), -k) for (c, k), _, w in cs)
        return head + dot([(ta, wa, 1), (tb, wb_, 1)]).div(d3)

    gyxyx = closed((qb * qb, 1), (qa * qb, -2), (qa * qa, 1))
    gyyx = closed((qb * qxb, -1), (dot([(qa, qxb, 1), (qb, qxa, 1)]), 1), (qa * qxa, -1))
    gyy = closed((qxb * qxb, 1), (qxa * qxb, -2), (qxa * qxa, 1))

    pairs = (
        (gyxyx, apply_dyx(m, apply_dyx(m, t)), "G_yxyx"),
        (gyyx, apply_dy(m, apply_dyx(m, t)), "G_yyx"),
        (gyy, apply_dy(m, apply_dy(m, t)), "G_yy"),
    )
    for closed_form, operator_form, name in pairs:
        if not (closed_form - operator_form).is_zero():
            raise InternalCheckError(
                f"closed formula and operator path disagree for {name}"
            )
    return gyxyx, gyyx, gyy


# ---------------------------------------------------------------------------
# Fully expanded third-order transfer: delta^5 * G_yxyxyx as a term table.
#
# Entry layout: (T-derivative word, integer coefficient, three Q-factor
# derivative words, two determinant column pairs); the entry value is
#
#   coeff * Q_f1 * Q_f2 * Q_f3 * det(u1|v1) * det(u2|v2) * T_word .
#
# Repeated-column determinants vanish identically and are omitted.
# ---------------------------------------------------------------------------

THIRD_JET_TABLE = (
    # third-order T block
    ("aaa", -1, ("b", "b", "b"), ("a", "b"), ("a", "b")),
    ("aab", 3, ("a", "b", "b"), ("a", "b"), ("a", "b")),
    ("abb", -3, ("a", "a", "b"), ("a", "b"), ("a", "b")),
    ("bbb", 1, ("a", "a", "a"), ("a", "b"), ("a", "b")),
    # T_aa block
    ("aa", -2, ("b", "b", "ab"), ("a", "b"), ("a", "b")),
    ("aa", 2, ("a", "b", "bb"), ("a", "b"), ("a", "b")),
    ("aa", 3, ("b", "b", "b"), ("a", "b"), ("aa", "b")),
    ("aa", 2, ("b", "b", "b"), ("a", "b"), ("a", "ab")),
    ("aa", -4, ("a", "b", "b"), ("a", "b"), ("ab", "b")),
    ("aa", -2, ("a", "b", "b"), ("a", "b"), ("a", "bb")),
    ("aa", -1, ("a", "a", "b"), ("a", "b"), ("b", "bb")),
    # T_ab block
    ("ab", -2, ("a", "a", "bb"), ("a", "b"), ("a", "b")),
    ("ab", 2, ("b", "b", "aa"), ("a", "b"), ("a", "b")),
    ("ab", 1, ("a", "a", "a"), ("a", "b"), ("b", "bb")),
    ("ab", 6, ("a", "a", "b"), ("a", "b"), ("ab", "b")),
    ("ab", 1, ("b", "b", "b"), ("a", "b"), ("a", "aa")),
    ("ab", -6, ("a", "b", "b"), ("a", "b"), ("a", "ab")),
    ("ab", 5, ("a", "a", "b"), ("a", "b"), ("a", "bb")),
    ("ab", -5, ("a", "b", "b"), ("a", "b"), ("aa", "b")),
    # T_bb block
    ("bb", -2, ("a", "b", "aa"), ("a", "b"), ("a", "b")),
    ("bb", 2, ("a", "a", "ab"), ("a", "b"), ("a", "b")),
    ("bb", -3, ("a", "a", "a"), ("a", "b"), ("a", "bb")),
    ("bb", -2, ("a", "a", "a"), ("a", "b"), ("ab", "b")),
    ("bb", 4, ("a", "a", "b"), ("a", "b"), ("a", "ab")),
    ("bb", 2, ("a", "a", "b"), ("a", "b"), ("aa", "b")),
    ("bb", -1, ("a", "b", "b"), ("a", "b"), ("a", "aa")),
    # T_a block: products of two higher determinants
    ("a", 3, ("a", "a", "b"), ("aa", "b"), ("b", "bb")),
    ("a", 3, ("a", "a", "b"), ("a", "ab"), ("b", "bb")),
    ("a", -3, ("a", "a", "a"), ("ab", "b"), ("b", "bb")),
    ("a", -3, ("a", "a", "a"), ("a", "bb"), ("b", "bb")),
    ("a", -6, ("a", "b", "b"), ("aa", "b"), ("b", "ab")),
    ("a", -6, ("a", "b", "b"), ("a", "ab"), ("b", "ab")),
    ("a", 6, ("a", "a", "b"), ("ab", "b"), ("b", "ab")),
    ("a", 6, ("a", "a", "b"), ("a", "bb"), ("b", "ab")),
    ("a", 3, ("b", "b", "b"), ("aa", "b"), ("b", "aa")),
    ("a", 3, ("b", "b", "b"), ("a", "ab"), ("b", "aa")),
    ("a", -3, ("a", "b", "b"), ("ab", "b"), ("b", "aa")),
    ("a", -3, ("a", "b", "b"), ("a", "bb"), ("b", "aa")),
    # T_a block: delta times second-derivative Q factors
    ("a", -2, ("a", "b", "aa"), ("a", "b"), ("b", "bb")),
    ("a", 2, ("b", "b", "aa"), ("a", "b"), ("b", "ab")),
    ("a", 2, ("a", "b", "ab"), ("a", "b"), ("b", "ab")),
    ("a", -2, ("b", "b", "ab"), ("a", "b"), ("b", "aa")),
    ("a", -1, ("a", "a", "b"), ("a", "b"), ("ab", "bb")),
    ("a", -1, ("a", "a", "b"), ("a", "b"), ("b", "abb")),
    ("a", 2, ("a", "b", "b"), ("a", "b"), ("b", "aab")),
    ("a", -1, ("b", "b", "b"), ("a", "b"), ("ab", "aa")),
    ("a", -1, ("b", "b", "b"), ("a", "b"), ("b", "aaa")),
    ("a", 2, ("a", "a", "ab"), ("a", "b"), ("b", "bb")),
    ("a", -2, ("a", "b", "ab"), ("a", "b"), ("b", "ab")),
    ("a", -2, ("a", "a", "bb"), ("a", "b"), ("b", "ab")),
    ("a", 2, ("a", "b", "bb"), ("a", "b"), ("b", "aa")),
    ("a", 1, ("a", "a", "a"), ("a", "b"), ("b", "bbb")),
    ("a", -2, ("a", "a", "b"), ("a", "b"), ("bb", "ab")),
    ("a", -2, ("a", "a", "b"), ("a", "b"), ("b", "abb")),
    ("a", 1, ("a", "b", "b"), ("a", "b"), ("bb", "aa")),
    ("a", 1, ("a", "b", "b"), ("a", "b"), ("b", "aab")),
    # T_b block: products of two higher determinants
    ("b", -3, ("a", "a", "b"), ("a", "bb"), ("aa", "b")),
    ("b", -3, ("a", "a", "b"), ("a", "bb"), ("a", "ab")),
    ("b", 3, ("a", "a", "a"), ("a", "bb"), ("ab", "b")),
    ("b", 3, ("a", "a", "a"), ("a", "bb"), ("a", "bb")),
    ("b", 6, ("a", "b", "b"), ("a", "ab"), ("aa", "b")),
    ("b", 6, ("a", "b", "b"), ("a", "ab"), ("a", "ab")),
    ("b", -6, ("a", "a", "b"), ("a", "ab"), ("ab", "b")),
    ("b", -6, ("a", "a", "b"), ("a", "ab"), ("a", "bb")),
    ("b", -3, ("b", "b", "b"), ("a", "aa"), ("aa", "b")),
    ("b", -3, ("b", "b", "b"), ("a", "aa"), ("a", "ab")),
    ("b", 3, ("a", "b", "b"), ("a", "aa"), ("ab", "b")),
    ("b", 3, ("a", "b", "b"), ("a", "aa"), ("a", "bb")),
    # T_b block: delta times second-derivative Q factors
    ("b", 2, ("a", "b", "aa"), ("a", "b"), ("a", "bb")),
    ("b", -2, ("b", "b", "aa"), ("a", "b"), ("a", "ab")),
    ("b", -2, ("a", "b", "ab"), ("a", "b"), ("a", "ab")),
    ("b", 2, ("b", "b", "ab"), ("a", "b"), ("a", "aa")),
    ("b", 1, ("a", "a", "b"), ("a", "b"), ("aa", "bb")),
    ("b", 1, ("a", "a", "b"), ("a", "b"), ("a", "abb")),
    ("b", -2, ("a", "b", "b"), ("a", "b"), ("aa", "ab")),
    ("b", -2, ("a", "b", "b"), ("a", "b"), ("a", "aab")),
    ("b", 1, ("b", "b", "b"), ("a", "b"), ("a", "aaa")),
    ("b", -2, ("a", "a", "ab"), ("a", "b"), ("a", "bb")),
    ("b", 2, ("a", "b", "ab"), ("a", "b"), ("a", "ab")),
    ("b", 2, ("a", "a", "bb"), ("a", "b"), ("a", "ab")),
    ("b", -2, ("a", "b", "bb"), ("a", "b"), ("a", "aa")),
    ("b", -1, ("a", "a", "a"), ("a", "b"), ("ab", "bb")),
    ("b", -1, ("a", "a", "a"), ("a", "b"), ("a", "bbb")),
    ("b", 2, ("a", "a", "b"), ("a", "b"), ("a", "abb")),
    ("b", -1, ("a", "b", "b"), ("a", "b"), ("ab", "aa")),
    ("b", -1, ("a", "b", "b"), ("a", "b"), ("a", "aab")),
)

# The twelve a/b-derivatives of the six three-index determinant species.
# Entries whose first summand has repeated columns drop it (it is the
# zero series); those four vanishing cases are listed separately.
DET_DERIVATIVE_IDENTITIES = (
    (("b", "bb"), "b", (None, ("b", "bbb"))),
    (("b", "bb"), "a", (("ab", "bb"), ("b", "abb"))),
    (("b", "ab"), "b", (("bb", "ab"), ("b", "abb"))),
    (("b", "ab"), "a", (None, ("b", "aab"))),
    (("b", "aa"), "b", (("bb", "aa"), ("b", "aab"))),
    (("b", "aa"), "a", (("ab", "aa"), ("b", "aaa"))),
    (("a", "bb"), "b", (("ab", "bb"), ("a", "bbb"))),
    (("a", "bb"), "a", (("aa", "bb"), ("a", "abb"))),
    (("a", "ab"), "b", (None, ("a", "abb"))),
    (("a", "ab"), "a", (("aa", "ab"), ("a", "aab"))),
    (("a", "aa"), "b", (("ab", "aa"), ("a", "aab"))),
    (("a", "aa"), "a", (None, ("a", "aaa"))),
)

REPEATED_COLUMN_SPECIES = (("bb", "bb"), ("ab", "ab"), ("ab", "ab"), ("aa", "aa"))


def third_jet_expanded(m: SolutionManifold, t: TruncSeries) -> TruncSeries:
    """Evaluate the static term table for ``delta^5 * G_yxyxyx``.

    The rows are grouped by T word, then by Q factors.  Each determinant
    pair product and each Q-factor product is formed once; a group sums
    its weighted determinant products before the Q product multiplies
    them, and each T word multiplies the sum of its groups once.
    """
    _check_t(m, t)
    _unit_delta(m)
    xv, av, bv = m.q.vars
    by_word: dict = {}
    for word, coeff, qfactors, det1, det2 in THIRD_JET_TABLE:
        by_word.setdefault(word, {}).setdefault(qfactors, []).append((coeff, det1, det2))
    dets: dict = {}
    qprods: dict = {}
    parts = []
    for word, groups in by_word.items():
        inner = []
        for qfactors, rows in groups.items():
            weighted = []
            for coeff, det1, det2 in rows:
                if (det1, det2) not in dets:
                    dets[det1, det2] = m.det(*det1) * m.det(*det2)
                weighted.append(dets[det1, det2].scale(GaussRat.of(coeff)))
            if qfactors not in qprods:
                f1, f2, f3 = qfactors
                qprods[qfactors] = m.d(f1) * m.d(f2) * m.d(f3)
            inner.append((qprods[qfactors], TruncSeries.sum(weighted), 1))
        s = t
        for ch in word:
            s = s.derive(av if ch == "a" else bv)
        parts.append((s, TruncSeries.dot(inner), 1))
    return TruncSeries.dot(parts)


def third_jet_check(m: SolutionManifold, t: TruncSeries):
    """Compare the term table against ``delta^5 * L[G_yxyx]`` exactly.

    Returns ``None`` on agreement, else the lowest nonzero term of the
    difference (so negative controls report a witness).
    """
    delta = _unit_delta(m)
    gyxyx = second_jet_transfer(m, t)[0]
    operator_path = delta.pow(5) * apply_dyx(m, gyxyx)
    return (third_jet_expanded(m, t) - operator_path).lowest_term()


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
    numerators = (  # the weighted products over u^5, u^6 and u^7
        ((z2[3], z1[2], -6), (z2[2], z1[3], -4), (z2[1], z1[4], -1)),
        ((z2[2], square, 15), (z1[3] * z2[1], z1[2], 10)),
        ((z2[1], square * z1[2], -15),),
    )
    total = z2[4]  # over u^4
    for parts in numerators:
        total = TruncSeries.dot([(total, u, 1), *parts])
    return total.div(u.pow(7))


def _fail(name: str, detail) -> None:
    raise InternalCheckError(f"self-test {name!r} failed: {detail}")


def transferred_i1(m: SolutionManifold, order: int) -> TruncSeries:
    """The Tresse ``I1`` of the ODE of ``m`` eliminated to ``order``, pulled back
    to the space of ``Theta = m.q`` via ``(x, y, yx) -> (z, Theta, Theta_z)``."""
    theta = m.q
    z = TruncSeries.variable("z", theta.vars, theta.order)
    i1 = ode_invariants(m, order).i1
    return i1.substitute({"x": z, "y": theta, "yx": theta.derive("z")})


def pipeline_equivalence(d: ComplexDefining, order: int):
    """Keystone identity on ``d``: ``I1`` of its ODE to ``order``, transferred,
    equals ``aj6 / delta^7``.

    Returns ``None`` on exact agreement to the common order, else the
    lowest nonzero term of the difference.
    """
    rhs = aj6(d).div(d.manifold.delta().pow(7))
    return (transferred_i1(d.manifold, order) - rhs).lowest_term()


def _spherical_fixtures(order: int = 10) -> list:
    """Heisenberg and its three transformed images, freshly computed."""
    base = fixtures.heisenberg(order)
    out = [("heisenberg", base)]
    for i, h in enumerate(fixtures.corpus_biholos(order), start=1):
        out.append((f"transformed-{i}", fixtures.transform_defining(base, h, order)))
    return out


def section5_check(seed: int) -> None:
    """The third-order audit on the seeded pair ``fixtures.section5_pair``:
    the term table against the operator path, the total derivative, the
    determinant derivative identities and the repeated-column species."""
    name = f"section5-seed-{seed}"
    q, t = fixtures.section5_pair(seed, 6)
    m = SolutionManifold(q)
    witness = third_jet_check(m, t)
    if witness is not None:
        _fail(name, f"expanded table defect {witness}")
    if total_deriv_check(m, t) is not None:
        _fail(name, "total derivative transfer defect")
    for (u, v), var, (head, tail) in DET_DERIVATIVE_IDENTITIES:
        lhs = m.det(u, v).derive(m.q.vars["xab".index(var)])
        rhs = m.det(*tail) if head is None else m.det(*head) + m.det(*tail)
        if not (lhs - rhs).is_zero():
            _fail(name, f"determinant derivative identity {(u, v)}/{var}")
    for u, v in REPEATED_COLUMN_SPECIES:
        if not m.det(u, v).is_zero():
            _fail(name, f"repeated-column determinant {(u, v)} nonzero")


def run_self_test() -> list:
    """Run every corpus check; returns the ordered list of names that passed."""
    passed = []
    ok = passed.append
    spherical = _spherical_fixtures(10)
    for name, d in spherical:
        if verify_reality(d) is not None:
            _fail(name, "reality condition violated")
        delta, nondeg = levi_delta(d)
        if not nondeg:
            _fail(name, "Levi degenerate")
        if not aj6(d).is_zero():
            _fail(name, "sixth-order obstruction does not vanish")
        ok(f"{name}-spherical")
    # aj6 kept the numerator delta^3 aj4 on the fixture; delta is a unit
    if not spherical[0][1].aj4_numerator.is_zero():
        _fail("heisenberg", "fourth-order obstruction does not vanish")
    heis_delta, _ = levi_delta(spherical[0][1])
    if heis_delta.constant_term() != GaussRat.of(1):
        _fail("heisenberg", "Levi determinant is not 1")
    ok("heisenberg-delta-one")

    rigid = []
    for xi_txt, mono, coeff in fixtures.XI_NONSPHERICAL:
        xi = parse_series(xi_txt, XI_VARS, 12)
        inv = rigid_invariant(xi)
        low = inv.lowest_term()
        if low is None or low[0] != mono or low[1] != coeff:
            _fail(xi_txt, f"rigid witness {low} differs from pinned ({mono}, {coeff})")
        theta = parse_series(f"-wb + {xi_txt}", THETA_VARS, 12)
        d = ComplexDefining.from_theta(theta)
        sixth = aj6(d)
        low6 = sixth.lowest_term()
        if low6 is None or low6[0] != mono + (0,) or low6[1] != coeff:
            _fail(xi_txt, f"cleared sixth-order witness {low6} differs from pinned")
        rigid.append((xi_txt, d))
        ok(f"rigid-witness-{xi_txt}")

    for name, d in spherical + rigid:
        witness = pipeline_equivalence(d, 8)
        if witness is not None:
            _fail(name, f"pipeline equivalence defect {witness}")
        ok(f"{name}-pipeline-equivalence")
        koppisch_check(d.manifold, 8)
        ok(f"{name}-koppisch")

    for seed in fixtures.SECTION5_SEEDS:
        section5_check(seed)
        ok(f"section5-seed-{seed}")

    return passed
