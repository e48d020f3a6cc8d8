"""Parameter elimination and the dual (``transfer``), and the audited
jet-transfer formulas (``selftest``), including the expanded third-order
term table (the central regression of the build)."""

import itertools
import random

import pytest

import crsphere.selftest as audit
import crsphere.transfer as tr
from crsphere.errors import NonUnitError, NotSolvableError
from crsphere.fixtures import random_gauss, random_series, section5_pair
from crsphere.parsing import parse_series
from crsphere.rational import GaussRat
from crsphere.selftest import (
    DET_DERIVATIVE_IDENTITIES,
    REPEATED_COLUMN_SPECIES,
    apply_dx,
    apply_dy,
    apply_dyx,
    first_jet_transfer,
    second_jet_transfer,
    third_jet_check,
    third_jet_expanded,
    total_deriv_check,
)
from crsphere.series import TruncSeries
from crsphere.transfer import SolutionManifold, associated_ode, dual_manifold, solve_parameters

from random_inputs import random_solvable_q


XAB = ("x", "a", "b")


def manifold(text, order=8):
    return SolutionManifold(parse_series(text, XAB, order))


HEISENBERG_Q = "-b + x*a"


# -- parameter elimination ------------------------------------------------------


def test_solve_parameters_heisenberg():
    a_of, b_of = solve_parameters(manifold(HEISENBERG_Q), 8)
    knowns = ("x", "y", "yx")
    assert a_of == parse_series("yx", knowns, 7)
    assert b_of == parse_series("-y + x*yx", knowns, 7)


def test_solve_parameters_affine():
    a_of, b_of = solve_parameters(SolutionManifold(parse_series("b + x*a", XAB, 8)), 8)
    knowns = ("x", "y", "yx")
    assert a_of == parse_series("yx", knowns, 7)
    assert b_of == parse_series("y - x*yx", knowns, 7)


def test_solve_parameters_quadratic_residual():
    m = manifold("-b + x*a + x^2*a^2")
    a_of, b_of = solve_parameters(m, 8)
    # residuals are asserted inside; spot-check the leading corrections
    assert a_of.coeff((0, 0, 1)) == GaussRat.of(1)
    assert b_of.coeff((0, 1, 0)) == GaussRat.of(-1)


def test_associated_ode_heisenberg_is_free_particle():
    assert associated_ode(manifold(HEISENBERG_Q), 8).is_zero()


def test_associated_ode_affine_lines():
    assert associated_ode(SolutionManifold(parse_series("b + x*a", XAB, 8)), 8).is_zero()


def test_associated_ode_nonzero_and_consistent():
    """The defining identity of the correspondence: Q_xx == F(x, Q, Q_x)."""
    m = manifold("-b + x*a + x^2*a^2", 8)
    f = associated_ode(m, 8)
    assert not f.is_zero()
    q = m.q
    composed = f.substitute({"y": q.truncate(f.order), "yx": q.derive("x").truncate(f.order)})
    assert (composed - q.derive("x").derive("x")).is_zero()


def test_ode_is_eliminated_once_per_effective_order():
    m = manifold("-b + x*a + x^2*a^2", 8)
    f = m.ode(7)
    assert f == associated_ode(m, 7)
    # the elimination is capped at q.order - 1 = 7
    assert m.ode(8) is f and m.ode(7) is f
    assert m.ode(5) == associated_ode(m, 5) and m.ode(5) is not f


def test_correspondence_round_trip_random():
    rng = random.Random(31)
    for _ in range(5):
        q = random_solvable_q(rng, 8)
        m = SolutionManifold(q)
        f = associated_ode(m, 8)
        composed = f.substitute({"y": q.truncate(f.order), "yx": q.derive("x").truncate(f.order)})
        assert (composed - q.derive("x").derive("x")).is_zero()


# -- first-order transfer ----------------------------------------------------------


def test_first_jet_transfer_heisenberg():
    ops = first_jet_transfer(manifold(HEISENBERG_Q))
    assert ops.delta == TruncSeries.one(XAB, ops.delta.order)
    assert ops.a_yx == TruncSeries.one(XAB, ops.a_yx.order)
    assert ops.b_yx == parse_series("x", XAB, ops.b_yx.order)


def test_first_jet_transfer_affine():
    ops = first_jet_transfer(SolutionManifold(parse_series("b + x*a", XAB, 8)))
    assert ops.delta == parse_series("-1", XAB, ops.delta.order)
    assert ops.a_y.is_zero()
    assert ops.a_yx == TruncSeries.one(XAB, ops.a_yx.order)
    assert ops.b_y == TruncSeries.one(XAB, ops.b_y.order)


def test_cramer_identities_random():
    """The six displayed linear relations behind the first-jet lemma."""
    rng = random.Random(5)
    for _ in range(5):
        m = SolutionManifold(random_solvable_q(rng, 8))
        ops = first_jet_transfer(m)
        qa, qb, qx = m.d("a"), m.d("b"), m.d("x")
        qxa, qxb, qxx = m.d("xa"), m.d("xb"), m.d("xx")
        one = TruncSeries.one(XAB, m.q.order)
        zero_pairs = (
            (qx + qa * ops.a_x + qb * ops.b_x, None),
            (qa * ops.a_y + qb * ops.b_y, one),
            (qa * ops.a_yx + qb * ops.b_yx, None),
            (qxx + qxa * ops.a_x + qxb * ops.b_x, None),
            (qxa * ops.a_y + qxb * ops.b_y, None),
            (qxa * ops.a_yx + qxb * ops.b_yx, one),
        )
        for value, expected in zero_pairs:
            if expected is None:
                assert value.is_zero()
            else:
                assert (value - expected).is_zero()


def test_apply_dyx_examples():
    m = manifold(HEISENBERG_Q)
    a = parse_series("a", XAB, 8)
    assert (apply_dyx(m, a) - TruncSeries.one(XAB, 8)).is_zero()
    assert apply_dyx(m, parse_series("5", XAB, 8)).is_zero()


def test_apply_dy_example_affine():
    m = SolutionManifold(parse_series("b + x*a", XAB, 8))
    b = parse_series("b", XAB, 8)
    assert (apply_dy(m, b) - TruncSeries.one(XAB, 8)).is_zero()


def test_operator_commutation_random():
    rng = random.Random(17)
    for _ in range(4):
        m = SolutionManifold(random_solvable_q(rng, 8))
        t = random_series(rng, XAB, 3, 8)
        assert (apply_dy(m, apply_dyx(m, t)) - apply_dyx(m, apply_dy(m, t))).is_zero()


def test_total_derivative_transfers_to_d_x():
    m = manifold(HEISENBERG_Q)
    t = parse_series("x*a + b^2 + a^3", XAB, 8)
    assert total_deriv_check(m, t) is None
    rng = random.Random(23)
    for _ in range(4):
        m = SolutionManifold(random_solvable_q(rng, 8))
        t = random_series(rng, XAB, 3, 8)
        assert total_deriv_check(m, t) is None


def test_total_derivative_negative_control():
    """A wrong-sign drift coefficient must produce a witness."""
    m = manifold("-b + x*a + x^2*a^2")
    t = parse_series("a^2 + x*b", XAB, 8)
    delta = m.delta()
    ax_wrong = (m.d("x") * m.d("xb") - m.d("b") * m.d("xx")).div(delta)  # sign flipped
    bx = (m.d("x") * m.d("xa") - m.d("a") * m.d("xx")).div(delta)
    lhs = (
        t.derive("x") + ax_wrong * t.derive("a") + bx * t.derive("b")
        + m.d("x") * apply_dy(m, t) + m.d("xx") * apply_dyx(m, t)
    )
    diff = lhs - t.derive("x").truncate(lhs.order)
    assert not diff.is_zero()


def test_degenerate_delta_rejected():
    m = SolutionManifold(parse_series("b + a*b", XAB, 8))
    with pytest.raises(NonUnitError):
        apply_dyx(m, parse_series("a", XAB, 8))


# -- second-order transfer ---------------------------------------------------------


def test_second_jet_transfer_zero_for_heisenberg_t():
    m = manifold(HEISENBERG_Q)
    t = m.q.derive("x").derive("x")  # identically zero
    for series in second_jet_transfer(m, t):
        assert series.is_zero()


def test_second_jet_closed_equals_operator_random():
    """The module's central self-check runs on every call; exercise it."""
    rng = random.Random(41)
    for _ in range(4):
        m = SolutionManifold(random_solvable_q(rng, 8))
        t = random_series(rng, XAB, 3, 8)
        gyxyx, gyyx, gyy = second_jet_transfer(m, t)
        assert (gyxyx - apply_dyx(m, apply_dyx(m, t))).is_zero()
        assert (gyyx - apply_dy(m, apply_dyx(m, t))).is_zero()
        assert (gyy - apply_dy(m, apply_dy(m, t))).is_zero()


def test_second_jet_rigid_specialization():
    """For a rigid defining function the first transfer specializes to
    (Xi_zzzbzb Xi_zzb - Xi_zzzb Xi_zzbzb) / Xi_zzb^3."""
    xi_txt = "x*a + x^2*a^2 + x^3*a^2 + x^2*a^3"
    q = parse_series("-b + " + xi_txt, XAB, 10)
    m = SolutionManifold(q)
    t = q.derive("x").derive("x")
    gyxyx = second_jet_transfer(m, t)[0]
    xi = parse_series(xi_txt, XAB, 10)
    u = xi.derive("x").derive("a")
    num = (
        xi.derive("x").derive("x").derive("a").derive("a") * u
        - xi.derive("x").derive("x").derive("a") * xi.derive("x").derive("a").derive("a")
    )
    assert (gyxyx - num.div(u.pow(3))).is_zero()


# -- expanded third-order table -------------------------------------------------------


def test_third_jet_regression_seeded():
    for seed in (101, 202, 303):
        q, t = section5_pair(seed, 6)
        m = SolutionManifold(q)
        assert third_jet_check(m, t) is None


def test_third_jet_regression_deep():
    """Degree-4 data at order 11 reaches every four-index determinant
    species, pinning the full term table."""
    rng = random.Random(7)
    terms = {}
    for mono in itertools.product(range(5), repeat=3):
        if 0 < sum(mono) <= 4 and rng.random() < 0.8:
            terms[mono] = random_gauss(rng)
    q = parse_series("a - b + x*a", XAB, 11) + TruncSeries(XAB, terms, 11)
    t = random_series(rng, XAB, 3, 11, keep=0.8)
    assert third_jet_check(SolutionManifold(q), t) is None


def _loop_third_jet_expanded(m, t):
    """Reference for ``third_jet_expanded``: the table summed row by row."""
    xv, av, bv = m.q.vars
    result = None
    for word, coeff, qfactors, det1, det2 in audit.THIRD_JET_TABLE:
        term = t
        for ch in word:
            term = term.derive(av if ch == "a" else bv)
        term = term.scale(GaussRat.of(coeff))
        for f in qfactors:
            term = term * m.d(f)
        term = term * m.det(*det1) * m.det(*det2)
        result = term if result is None else result + term
    return result


def test_grouped_third_jet_table_matches_row_sum():
    cases = [section5_pair(seed, 6) for seed in (101, 202, 303)]
    rng = random.Random(7)
    terms = {}
    for mono in itertools.product(range(5), repeat=3):
        if 0 < sum(mono) <= 4 and rng.random() < 0.8:
            terms[mono] = random_gauss(rng)
    q = parse_series("a - b + x*a", XAB, 9) + TruncSeries(XAB, terms, 9)
    cases.append((q, random_series(rng, XAB, 3, 9, keep=0.8)))
    for q, t in cases:
        m = SolutionManifold(q)
        # ``==`` compares the terms, the known order and the variables
        assert third_jet_expanded(m, t) == _loop_third_jet_expanded(m, t)


def test_third_jet_fault_injection():
    q, t = section5_pair(101, 6)
    original = audit.THIRD_JET_TABLE
    flipped = ((original[0][0], -original[0][1]) + original[0][2:],) + original[1:]
    audit.THIRD_JET_TABLE = flipped
    try:
        witness = third_jet_check(SolutionManifold(q), t)
        assert witness is not None
        mono, coeff = witness
        assert not coeff.is_zero()
    finally:
        audit.THIRD_JET_TABLE = original


def test_determinant_derivative_identities():
    for seed in (101, 202):
        q, _ = section5_pair(seed, 6)
        m = SolutionManifold(q)
        for (u, v), var, (head, tail) in DET_DERIVATIVE_IDENTITIES:
            lhs = m.det(u, v).derive(var)
            rhs = m.det(*tail) if head is None else m.det(*head) + m.det(*tail)
            assert (lhs - rhs).is_zero(), ((u, v), var)


def test_repeated_column_determinants_vanish():
    q, _ = section5_pair(101, 6)
    m = SolutionManifold(q)
    for u, v in REPEATED_COLUMN_SPECIES:
        assert m.det(u, v).is_zero()


def test_each_determinant_species_is_evaluated_once(monkeypatch):
    q, _ = section5_pair(202, 6)
    m = SolutionManifold(q)
    species = sorted({pair for entry in audit.THIRD_JET_TABLE for pair in entry[3:]})
    products = []
    mul = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__", lambda f, g: products.append(1) or mul(f, g))
    first = [m.det(u, v) for u, v in species]
    assert len(products) == 2 * len(species)
    for _ in range(3):
        assert all(m.det(u, v) is det for (u, v), det in zip(species, first))
    assert m.delta() is first[species.index(("a", "b"))]
    assert len(products) == 2 * len(species)


# -- duality ------------------------------------------------------------------


def test_dual_of_affine_model():
    dual = dual_manifold(SolutionManifold(parse_series("-b + x*a", XAB, 8)), 8)
    # b = Q*(a, x, y) = -y + a x, regraded to the standard roles
    assert dual.q == parse_series("-b + x*a", XAB, 8)


def test_double_dual_is_identity():
    rng = random.Random(59)
    for _ in range(4):
        q = random_solvable_q(rng, 8)
        m = SolutionManifold(q)
        again = dual_manifold(dual_manifold(m, 8), 8)
        assert (again.q - q).is_zero()


def test_dual_is_kept_per_order(monkeypatch):
    q = random_solvable_q(random.Random(61), 8)
    m = SolutionManifold(q)
    calls = []
    build = tr.dual_manifold
    monkeypatch.setattr(tr, "dual_manifold", lambda *args: calls.append(args[1]) or build(*args))
    first = m.dual(8)
    assert first.q == build(SolutionManifold(q), 8).q
    # an order above the known order of Q is the same effective order
    assert m.dual(8) is first and m.dual(12) is first
    assert m.dual(6) is not first
    assert calls == [8, 6]


def test_dual_requires_unit_q_b():
    m = SolutionManifold(parse_series("x*a + a*b", XAB, 8))
    with pytest.raises(NotSolvableError):
        dual_manifold(m, 8)
