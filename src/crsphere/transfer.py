"""Submanifolds of solutions and the jet-coordinate transfer calculus.

A second-order ODE ``y_xx = F(x, y, y_x)`` corresponds to the graph
``y = Q(x, a, b)`` of its general solution, parametrized by the initial
conditions ``(a, b)``.  Eliminating the parameters produces closed
transfer formulas between derivatives taken in the ``(x, y, y_x)`` space
and jet polynomials of ``Q`` in the ``(x, a, b)`` space.  Everything is
driven by the bordered two-by-two determinants

    det(u|v) = | Q_u   Q_v  |
               | Q_xu  Q_xv |

whose ``(a|b)`` instance is the master denominator ``delta``.  One helper
evaluates every determinant species, which keeps the roughly twenty
species appearing below on a single code path; each species is evaluated
once per manifold and kept beside the cached derivatives of ``Q``, and so
is the dual manifold at each order it is asked for.

The fully expanded third-order transfer is stored as a static term table
(``THIRD_JET_TABLE``) so it can be audited entry by entry; its one
normative check is exact agreement with the repeated first-order operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

from .errors import ArityError, InternalCheckError, NonUnitError, NotSolvableError
from .rational import GaussRat
from .series import TruncSeries
from .solve import implicit_solve

ODE_VARS = ("x", "y", "yx")
XAB = ("x", "a", "b")


@dataclass
class SolutionManifold:
    """A graph ``y = Q(x, a, b)``; the three variable slots play the roles
    of ``x`` (independent), ``a`` and ``b`` (parameters) positionally."""

    q: TruncSeries
    _cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if self.q.arity != 3:
            raise NotSolvableError("a solution manifold needs exactly three variables")
        if not self.q.constant_term().is_zero():
            raise NotSolvableError("the graphing function must vanish at the origin")

    # derivative shorthand: key is a word over {x, a, b}, e.g. "xab"
    def d(self, key: str) -> TruncSeries:
        key = "".join(sorted(key))
        if key not in self._cache:
            s = self.q
            for ch in key:
                s = s.derive(self.q.vars["xab".index(ch)])
            self._cache[key] = s
        return self._cache[key]

    def det(self, u: str, v: str) -> TruncSeries:
        """The bordered determinant ``Q_u Q_xv - Q_v Q_xu``, evaluated once."""
        key = u + "|" + v
        if key not in self._cache:
            self._cache[key] = self.d(u) * self.d("x" + v) - self.d(v) * self.d("x" + u)
        return self._cache[key]

    def delta(self) -> TruncSeries:
        return self.det("a", "b")

    @property
    def solvable(self) -> bool:
        """Solvable with respect to the parameters at the origin."""
        return not self.delta().constant_term().is_zero()

    def dual(self, order: int) -> "SolutionManifold":
        """``dual_manifold(self, order)``, built once per effective order."""
        key = f"dual@{min(order, self.q.order)}"
        if key not in self._cache:
            self._cache[key] = dual_manifold(self, order)
        return self._cache[key]

    def require_unit_delta(self) -> TruncSeries:
        delta = self.delta()
        if delta.constant_term().is_zero():
            raise NonUnitError("the parameter Jacobian vanishes at the origin")
        return delta


@dataclass(frozen=True)
class OdeRhs:
    """Right-hand side ``F`` of ``y_xx = F(x, y, y_x)`` over ``(x, y, yx)``."""

    f: TruncSeries


@dataclass(frozen=True)
class TransferOps:
    """The six first-order transfer coefficients of the parameter map."""

    delta: TruncSeries
    a_x: TruncSeries
    b_x: TruncSeries
    a_y: TruncSeries
    b_y: TruncSeries
    a_yx: TruncSeries
    b_yx: TruncSeries


def solve_parameters(m: SolutionManifold, order: int) -> Tuple[TruncSeries, TruncSeries]:
    """Invert ``(y, y_x) = (Q, Q_x)`` for the parameters: ``a = A(x, y, yx)``,
    ``b = B(x, y, yx)``.

    The effective order is capped by the jet of ``Q`` that is actually
    known (``Q_x`` costs one derivative).  Both defining residuals are
    re-checked by composing back with ``(Q, Q_x)``.
    """
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


def associated_ode(m: SolutionManifold, order: int) -> OdeRhs:
    """Eliminate the parameters from ``y_xx = Q_xx``: the associated ODE."""
    a_of, b_of = solve_parameters(m, order)
    q = m.q.rename(dict(zip(m.q.vars, XAB)))
    qxx = q.derive("x").derive("x")
    f = qxx.substitute({"a": a_of, "b": b_of})
    return OdeRhs(f)


def first_jet_transfer(m: SolutionManifold) -> TransferOps:
    """The six derivatives of ``A`` and ``B`` in terms of the second jet of Q:

        A_x  = (Q_b Q_xx - Q_x Q_xb) / delta    B_x  = (Q_x Q_xa - Q_a Q_xx) / delta
        A_y  = Q_xb / delta                     B_y  = -Q_xa / delta
        A_yx = -Q_b / delta                     B_yx = Q_a / delta
    """
    delta = m.require_unit_delta()
    qa, qb, qx = m.d("a"), m.d("b"), m.d("x")
    qxa, qxb, qxx = m.d("xa"), m.d("xb"), m.d("xx")
    return TransferOps(
        delta=delta,
        a_x=(qb * qxx - qx * qxb).div(delta),
        b_x=(qx * qxa - qa * qxx).div(delta),
        a_y=qxb.div(delta),
        b_y=(-qxa).div(delta),
        a_yx=(-qb).div(delta),
        b_yx=qa.div(delta),
    )


def _check_t(m: SolutionManifold, t: TruncSeries) -> None:
    if t.vars != m.q.vars:
        raise ArityError(
            f"transferred function must live in the manifold space {m.q.vars}"
        )


def apply_dyx(m: SolutionManifold, t: TruncSeries) -> TruncSeries:
    """Transfer of ``d/d(y_x)``:  ``(-Q_b T_a + Q_a T_b) / delta``."""
    _check_t(m, t)
    delta = m.require_unit_delta()
    xv, av, bv = m.q.vars
    return (m.d("a") * t.derive(bv) - m.d("b") * t.derive(av)).div(delta)


def apply_dy(m: SolutionManifold, t: TruncSeries) -> TruncSeries:
    """Transfer of ``d/dy``:  ``(Q_xb T_a - Q_xa T_b) / delta``."""
    _check_t(m, t)
    delta = m.require_unit_delta()
    xv, av, bv = m.q.vars
    return (m.d("xb") * t.derive(av) - m.d("xa") * t.derive(bv)).div(delta)


def apply_dx(m: SolutionManifold, t: TruncSeries) -> TruncSeries:
    """Transfer of ``d/dx``: plain ``T_x`` plus the ``A_x``/``B_x`` drift."""
    _check_t(m, t)
    ops = first_jet_transfer(m)
    xv, av, bv = m.q.vars
    return t.derive(xv) + ops.a_x * t.derive(av) + ops.b_x * t.derive(bv)


def total_deriv_check(m: SolutionManifold, t: TruncSeries):
    """Verify that ``D = d_x + y_x d_y + F d_yx`` transfers to plain ``d_x``.

    Returns ``None`` on success or the lowest nonzero term of the defect.
    """
    _check_t(m, t)
    xv = m.q.vars[0]
    lhs = apply_dx(m, t) + m.d("x") * apply_dy(m, t) + m.d("xx") * apply_dyx(m, t)
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
    delta = m.require_unit_delta()
    xv, av, bv = m.q.vars
    qa, qb = m.d("a"), m.d("b")
    qxa, qxb = m.d("xa"), m.d("xb")
    ta, tb = t.derive(av), t.derive(bv)
    taa, tab, tbb = ta.derive(av), ta.derive(bv), tb.derive(bv)
    two = GaussRat.of(2)

    d2 = delta * delta
    d3 = d2 * delta

    # shared T_a / T_b bracket polynomials of the lemma
    pa = (
        qa * qa * m.det("b", "bb")
        - two * (qa * qb * m.det("b", "ab"))
        + qb * qb * m.det("b", "aa")
    )
    pb = (
        -(qa * qa * m.det("a", "bb"))
        + two * (qa * qb * m.det("a", "ab"))
        - qb * qb * m.det("a", "aa")
    )

    def closed(c_aa, c_ab, c_bb, wa, wb_):
        head = (c_aa * taa + c_ab * tab + c_bb * tbb).div(d2)
        tail = (ta * wa + tb * wb_).div(d3)
        return head + tail

    gyxyx = closed(qb * qb, -(two * (qa * qb)), qa * qa, pa, pb)
    gyyx = closed(
        -(qb * qxb),
        qa * qxb + qb * qxa,
        -(qa * qxa),
        -(qa * qxa) * m.det("b", "bb")
        + (qa * qxb + qb * qxa) * m.det("b", "ab")
        - qb * qxb * m.det("b", "aa"),
        qa * qxa * m.det("a", "bb")
        - (qa * qxb + qb * qxa) * m.det("a", "ab")
        + qb * qxb * m.det("a", "aa"),
    )
    gyy = closed(
        qxb * qxb,
        -(two * (qxa * qxb)),
        qxa * qxa,
        qxa * qxa * m.det("b", "bb")
        - two * (qxa * qxb * m.det("b", "ab"))
        + qxb * qxb * m.det("b", "aa"),
        -(qxa * qxa) * m.det("a", "bb")
        + two * (qxa * qxb * m.det("a", "ab"))
        - qxb * qxb * m.det("a", "aa"),
    )

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
    m.require_unit_delta()
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
            inner.append(qprods[qfactors] * TruncSeries.sum(weighted))
        s = t
        for ch in word:
            s = s.derive(av if ch == "a" else bv)
        parts.append(s * TruncSeries.sum(inner))
    return TruncSeries.sum(parts)


def third_jet_check(m: SolutionManifold, t: TruncSeries):
    """Compare the term table against ``delta^5 * L[G_yxyx]`` exactly.

    Returns ``None`` on agreement, else the lowest nonzero term of the
    difference (so negative controls report a witness).
    """
    delta = m.require_unit_delta()
    gyxyx = second_jet_transfer(m, t)[0]
    operator_path = delta.pow(5) * apply_dyx(m, gyxyx)
    return (third_jet_expanded(m, t) - operator_path).lowest_term()


def dual_manifold(m: SolutionManifold, order: int) -> SolutionManifold:
    """Swap variables and parameters: solve ``b = Q*(a, x, y)`` from
    ``y = Q(x, a, b)`` and regrade ``(a; x, y)`` as the new ``(x; a, b)``."""
    q = m.q.rename(dict(zip(m.q.vars, XAB)))
    if q.coeff((0, 0, 1)).is_zero():
        raise NotSolvableError("Q_b vanishes at the origin; cannot solve for b")
    order = min(order, q.order)
    space = ("a", "x", "y", "b")
    eq = q.extend(space) - TruncSeries.variable("y", space, q.order)
    qstar = implicit_solve([eq], ["b"], order)["b"]
    return SolutionManifold(qstar.rename({"a": "x", "x": "a", "y": "b"}))
