"""Tresse invariants, the fourth- and sixth-order obstructions, the rigid
formula, duality cross-checks and the verdict pipeline."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crsphere.invariants as inv
import crsphere.transfer as transfer
from crsphere.defining import (
    Biholo,
    ComplexDefining,
    RealGraph,
    THETA_VARS,
    to_complex_defining,
    transform_defining,
)
from crsphere.errors import DegenerateError, InternalCheckError, RealityError
from crsphere.fixtures import XI_NONSPHERICAL, corpus_biholos, heisenberg
from crsphere.invariants import (
    aj4,
    aj6,
    koppisch_check,
    rigid_invariant,
    sphericality_verdict,
    tresse_invariants,
)
from crsphere.parsing import parse_series
from crsphere.rational import GaussRat
from crsphere.selftest import apply_dyx, pipeline_equivalence, transferred_i1
from crsphere.series import TruncSeries
from crsphere.transfer import SolutionManifold, dual_manifold

from conftest import check_theta, gauss_rats
from random_inputs import random_hermitian_xi
from reference_invariants import reference_aj4, reference_aj6, reference_rigid_invariant

ODE_VARS = ("x", "y", "yx")


def ode(text, order=10):
    return parse_series(text, ODE_VARS, order)


def defining(text, order=10):
    return ComplexDefining.from_theta(parse_series(text, THETA_VARS, order))


# -- Tresse invariants ---------------------------------------------------------


def test_invariants_of_free_particle_vanish():
    pair = tresse_invariants(ode("0"))
    assert pair.i1.is_zero() and pair.i2.is_zero()


def test_i1_of_quartic():
    pair = tresse_invariants(ode("yx^4"))
    assert pair.i1 == parse_series("24", ODE_VARS, pair.i1.order)


def test_i2_of_y_times_yx():
    # hand expansion: only -4 D(F_yyx) + 4 F_yx F_yyx survive, giving 4y
    pair = tresse_invariants(ode("y*yx"))
    assert pair.i2 == parse_series("4*y", ODE_VARS, pair.i2.order)


# -- fourth-order obstruction ------------------------------------------------------


def test_aj4_heisenberg_vanishes():
    assert aj4(heisenberg()).is_zero()


def test_aj4_rigid_specialization():
    xi_txt = "z*zb + z^2*zb^2"
    d = defining("-wb + " + xi_txt)
    value = aj4(d)
    xi = parse_series(xi_txt, ("z", "zb"), 10)
    u = xi.derive("z").derive("zb")
    num = (
        xi.derive("z").derive("z").derive("zb").derive("zb") * u
        - xi.derive("z").derive("z").derive("zb") * xi.derive("z").derive("zb").derive("zb")
    )
    assert (value - num.div(u.pow(3)).extend(THETA_VARS)).is_zero()


def test_aj4_requires_levi_nondegeneracy():
    with pytest.raises(DegenerateError):
        aj4(defining("-wb"))


def _aj4_unfactored(theta):
    """Reference for ``_aj4_direct``: the formula with every product written
    out and ``delta`` multiplied into each of the three fourth-order terms."""
    t = theta

    def det2(a, b, c, d):
        return a * d - b * c

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

    delta = det2(t_zb, t_wb, t_zzb, t_zwb)
    num = (
        t_zzzb.derive("zb") * (t_wb * t_wb * delta)
        - two * (t_zzzb.derive("wb") * (t_zb * t_wb * delta))
        + t_zzwb.derive("wb") * (t_zb * t_zb * delta)
        + t_zzzb
        * (
            t_zb * t_zb * det2(t_wb, t_wbwb, t_zwb, t_zwbwb)
            - two * (t_zb * t_wb * det2(t_wb, t_zbwb, t_zwb, t_zzbwb))
            + t_wb * t_wb * det2(t_wb, t_zbzb, t_zwb, t_zzbzb)
        )
        + t_zzwb
        * (
            -(t_zb * t_zb * det2(t_zb, t_wbwb, t_zzb, t_zwbwb))
            + two * (t_zb * t_wb * det2(t_zb, t_zbwb, t_zzb, t_zzbwb))
            - t_wb * t_wb * det2(t_zb, t_zbzb, t_zzb, t_zzbzb)
        )
    )
    return num.div(delta.pow(3))


def _image(order):
    return transform_defining(heisenberg(order), corpus_biholos(order)[0], order)


def _direct_over_delta3(theta):
    """``_aj4_direct`` gives the numerator over ``delta^3``; divide it out."""
    return inv._aj4_direct(theta).div(SolutionManifold(theta).delta().pow(3))


def test_factored_aj4_matches_unfactored_transcription():
    dense_phi = parse_series("x^2 + y^2 + x^2*y*v + v^2*x^2", ("x", "y", "v"), 12)
    dense = to_complex_defining(RealGraph(dense_phi), 12)
    images = [transform_defining(heisenberg(12), b, 12) for b in corpus_biholos(12)]
    for d in (heisenberg(12), *images, dense):
        # ``==`` compares the terms and the known order
        assert _direct_over_delta3(d.theta) == _aj4_unfactored(d.theta)


def test_factored_aj4_matches_unfactored_on_check_inputs():
    rng = random.Random(9)
    for k in range(20):
        theta = parse_series(check_theta(rng, refute=k % 3 != 0), THETA_VARS, 12)
        assert _direct_over_delta3(theta) == _aj4_unfactored(theta)


_MONOS_THETA = [m for m in itertools.product(range(4), repeat=3) if 2 <= sum(m) <= 4]


@settings(max_examples=40, deadline=None)
@given(
    gauss_rats.filter(lambda c: not c.is_zero()),
    st.dictionaries(st.sampled_from(_MONOS_THETA), gauss_rats, max_size=5),
    st.integers(6, 8),
)
def test_factored_aj4_matches_unfactored_on_random_theta(levi, extra, order):
    # the z*zb coefficient is delta at the origin, so it is kept nonzero
    terms = {**extra, (0, 0, 1): GaussRat.of(-1), (1, 1, 0): levi}
    theta = TruncSeries(THETA_VARS, terms, order)
    assert _direct_over_delta3(theta) == _aj4_unfactored(theta)


def test_aj4_cross_check_detects_a_changed_term(monkeypatch):
    direct = inv._aj4_direct
    monkeypatch.setattr(
        inv, "_aj4_direct", lambda theta: direct(theta) + TruncSeries.one(theta.vars, theta.order)
    )
    with pytest.raises(InternalCheckError):
        aj4(_image(10))


# multiplies in one order-12 verdict on ``_image(12)``: 224 while ``aj4`` was
# cross-checked through the three-species second-jet transfer, 127 after,
# 46 since ``substitute`` convolves grouped terms without ``__mul__``, 38 since
# ``_aj4_direct`` factors its third-order groups through two contractions
VERDICT_MULTIPLIES = 38


def test_verdict_multiply_count(monkeypatch):
    d = ComplexDefining.from_theta(_image(12).theta)
    calls = []
    mul = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__", lambda f, g: calls.append(1) or mul(f, g))
    report = sphericality_verdict(d, 12)
    assert report.verdict == "spherical-to-order"
    assert len(calls) <= VERDICT_MULTIPLIES


# ``GaussRat`` values built in one order-12 verdict on ``_image(12)``: 2,411
# while every series stored ``GaussRat`` coefficients, 9 since series stay
# cleared and only the boundary builds them, 4 since no ``L`` checks that
# ``delta`` is a unit (three constant terms of the Levi determinant, one
# formula constant)
VERDICT_GAUSSRATS = 4


def test_verdict_gaussrat_count(monkeypatch):
    d = ComplexDefining.from_theta(_image(12).theta)
    built = []
    post_init = GaussRat.__post_init__
    monkeypatch.setattr(GaussRat, "__post_init__", lambda q: built.append(1) or post_init(q))
    report = sphericality_verdict(d, 12)
    assert report.verdict == "spherical-to-order"
    assert len(built) <= VERDICT_GAUSSRATS


# divisions in one order-12 verdict on ``_image(12)``: 5 while each ``L``
# divided by ``delta`` and ``aj4`` by ``delta^3``, 0 since the recursion
# clears ``delta`` step by step
VERDICT_DIVISIONS = 0


def test_verdict_division_count(monkeypatch):
    d = ComplexDefining.from_theta(_image(12).theta)
    calls = []
    div = TruncSeries.div
    monkeypatch.setattr(TruncSeries, "div", lambda f, g: calls.append(1) or div(f, g))
    report = sphericality_verdict(d, 12)
    assert report.verdict == "spherical-to-order"
    assert len(calls) <= VERDICT_DIVISIONS


# operand term pairs (the two operands' term counts multiplied, summed over
# the products) in one order-12 verdict on ``_image(12)``: 8,559 while every
# operand was used at its full known order, 3,914 since each is cut to the
# order its product keeps
VERDICT_MULTIPLY_PAIRS = 3914


def test_verdict_multiply_pairs(monkeypatch):
    d = ComplexDefining.from_theta(_image(12).theta)
    pairs = []
    mul = TruncSeries.__mul__
    monkeypatch.setattr(
        TruncSeries, "__mul__", lambda f, g: pairs.append(len(f._num) * len(g._num)) or mul(f, g)
    )
    report = sphericality_verdict(d, 12)
    assert report.verdict == "spherical-to-order"
    assert sum(pairs) <= VERDICT_MULTIPLY_PAIRS


# -- the division-free obstructions against the division-based reference ------------


def _assert_matches_reference(theta):
    # independent defining functions, so nothing kept by one route reaches the other
    d = ComplexDefining.from_theta(theta)
    ref = ComplexDefining.from_theta(theta)
    # ``==`` compares the terms and the known order, so ``tested_order`` is pinned
    assert aj6(d) == reference_aj6(ref)
    assert aj4(d) == reference_aj4(ref)


@settings(max_examples=30, deadline=None)
@given(
    gauss_rats.filter(lambda c: not c.is_zero()),
    st.dictionaries(st.sampled_from(_MONOS_THETA), gauss_rats, max_size=5),
    st.integers(3, 14),
)
def test_obstructions_match_reference_on_random_theta(levi, extra, order):
    terms = {**extra, (0, 0, 1): GaussRat.of(-1), (1, 1, 0): levi}
    _assert_matches_reference(TruncSeries(THETA_VARS, terms, order))


def test_obstructions_match_reference_on_check_inputs():
    rng = random.Random(11)
    for k in range(12):
        _assert_matches_reference(parse_series(check_theta(rng, refute=k % 3 != 0), THETA_VARS, 12))


def test_obstructions_match_reference_on_images_and_dense_theta():
    for order in (12, 16):
        dense_phi = parse_series("x^2 + y^2 + x^2*y*v + v^2*x^2", ("x", "y", "v"), order)
        _assert_matches_reference(to_complex_defining(RealGraph(dense_phi), order).theta)
    for h in corpus_biholos(12):
        _assert_matches_reference(transform_defining(heisenberg(12), h, 12).theta)
    _assert_matches_reference(heisenberg(12).theta)


def test_aj4_after_the_verdict_matches_reference():
    # the verdict keeps only the numerator; ``aj4`` divides it on request
    theta = _image(12).theta
    d = ComplexDefining.from_theta(theta)
    sphericality_verdict(d, 12)
    assert aj4(d) == reference_aj4(ComplexDefining.from_theta(theta))


def test_transformed_image_may_have_nonzero_aj4_but_zero_aj6():
    d = heisenberg()
    image = transform_defining(d, corpus_biholos(10)[0], 10)
    assert aj6(image).is_zero()


# -- sixth-order obstruction --------------------------------------------------------


def test_aj6_heisenberg_vanishes_exactly():
    assert aj6(heisenberg()).is_zero()


def test_aj6_spherical_images_vanish():
    d = heisenberg()
    for h in corpus_biholos(10):
        assert aj6(transform_defining(d, h, 10)).is_zero()


def test_aj6_nonspherical_witnesses_pinned():
    for xi_txt, mono, coeff in XI_NONSPHERICAL:
        d = defining("-wb + " + xi_txt, 12)
        low = aj6(d).lowest_term()
        assert low == (mono + (0,), coeff)


def test_aj6_conjugation_simultaneous_vanishing():
    """The conjugate-relabelled defining function has an obstruction that
    vanishes iff the original one does (exact equality does not hold for
    nonrigid surfaces; only simultaneous vanishing is claimed)."""
    base = defining("-wb + z*zb + z^2*zb^2", 12)
    h = Biholo(parse_series("z + z*w", ("z", "w"), 12), parse_series("w + w^2", ("z", "w"), 12))
    cases = [heisenberg(10), transform_defining(heisenberg(10), h, 10), base,
             transform_defining(base, h, 12)]
    for d in cases:
        conj_theta = d.theta.conjugate({"z": "zb", "zb": "z", "wb": "wb"}).reorder(THETA_VARS)
        dc = ComplexDefining.from_theta(conj_theta)
        assert aj6(dc).is_zero() == aj6(d).is_zero()


def test_aj6_conjugation_exact_for_rigid_hermitian():
    # Hermitian rigid defining functions are fixed by the conjugate relabel
    rng = random.Random(77)
    xi = random_hermitian_xi(rng, 8, max_degree=4)
    theta = parse_series("-wb", THETA_VARS, 8) + xi.extend(THETA_VARS)
    conj_theta = theta.conjugate({"z": "zb", "zb": "z", "wb": "wb"}).reorder(THETA_VARS)
    assert conj_theta == theta


# -- rigid formula ------------------------------------------------------------------


def test_rigid_invariant_of_heisenberg_part_vanishes():
    assert rigid_invariant(parse_series("z*zb", ("z", "zb"), 10)).is_zero()


def test_rigid_invariant_matches_operator_route():
    xi_txt = "z*zb + z^2*zb^2"
    xi = parse_series(xi_txt, ("z", "zb"), 10)
    d = defining("-wb + " + xi_txt)
    m = SolutionManifold(d.theta)
    operator_route = apply_dyx(m, apply_dyx(m, aj4(d)))
    assert (rigid_invariant(xi).extend(THETA_VARS) - operator_route).is_zero()


def test_rigid_invariant_shares_witness_with_aj6():
    for xi_txt, mono, coeff in XI_NONSPHERICAL:
        xi = parse_series(xi_txt, ("z", "zb"), 12)
        low = rigid_invariant(xi).lowest_term()
        assert low == (mono, coeff)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(3, 16))
def test_rigid_invariant_matches_reference(seed, order):
    xi = random_hermitian_xi(random.Random(seed), order)
    # ``==`` compares the terms and the known order
    assert rigid_invariant(xi) == reference_rigid_invariant(xi)


def test_rigid_invariant_matches_reference_on_fixtures():
    for order in (8, 12, 16):
        for xi_txt, _, _ in XI_NONSPHERICAL:
            xi = parse_series(xi_txt, ("z", "zb"), order)
            assert rigid_invariant(xi) == reference_rigid_invariant(xi)


def test_rigid_invariant_divides_once(monkeypatch):
    calls = []
    div = TruncSeries.div
    monkeypatch.setattr(TruncSeries, "div", lambda f, g: calls.append(1) or div(f, g))
    rigid_invariant(parse_series("z*zb + z^4*zb^2 + z^2*zb^4 + 2*z^2*zb^2", ("z", "zb"), 12))
    assert len(calls) == 1


def test_rigid_invariant_validates_reality():
    with pytest.raises(RealityError):
        rigid_invariant(parse_series("z*zb + i*z^2*zb", ("z", "zb"), 10))


def test_rigid_invariant_validates_nondegeneracy():
    with pytest.raises(DegenerateError):
        rigid_invariant(parse_series("z^2*zb^2", ("z", "zb"), 10))


# -- duality ----------------------------------------------------------------------


def conjugate_in_dual_roles(theta: TruncSeries) -> TruncSeries:
    """The coefficient-conjugate of ``Theta`` with the conjugated slot as
    the new independent variable: the expected dual graph for a surface
    satisfying the reality condition."""
    return theta.conjugate({"z": "zb", "zb": "z", "wb": "wb"}).rename(
        {"zb": "x", "z": "a", "wb": "b"}
    )


def test_dual_of_heisenberg_is_conjugate_series():
    d = heisenberg()
    dual = dual_manifold(SolutionManifold(d.theta), 10)
    assert (dual.q - conjugate_in_dual_roles(d.theta)).is_zero()


def test_dual_of_cr_manifold_is_conjugate_for_real_fixture():
    rng = random.Random(3)
    xi = random_hermitian_xi(rng, 10, max_degree=4)
    theta = parse_series("-wb", THETA_VARS, 10) + xi.extend(THETA_VARS)
    dual = dual_manifold(SolutionManifold(theta), 10)
    assert (dual.q - conjugate_in_dual_roles(theta)).is_zero()


def test_dual_of_nonrigid_real_fixture_is_conjugate():
    base = defining("-wb + z*zb + z^2*zb^2", 10)
    h = Biholo(parse_series("z + z*w", ("z", "w"), 10), parse_series("w + w^2", ("z", "w"), 10))
    image = transform_defining(base, h, 10)
    dual = dual_manifold(SolutionManifold(image.theta), 10)
    assert (dual.q - conjugate_in_dual_roles(image.theta)).is_zero()


def test_koppisch_on_corpus():
    spherical = [heisenberg(10)]
    for h in corpus_biholos(10):
        spherical.append(transform_defining(heisenberg(10), h, 10))
    for d in spherical:
        rep = koppisch_check(SolutionManifold(d.theta), 8)
        assert rep.i1_vanishes and rep.i2_vanishes
        assert rep.dual_i1_vanishes and rep.dual_i2_vanishes
    for xi_txt, _, _ in XI_NONSPHERICAL:
        d = defining("-wb + " + xi_txt, 12)
        rep = koppisch_check(SolutionManifold(d.theta), 8)
        assert not rep.i1_vanishes and not rep.i2_vanishes
        assert not rep.dual_i1_vanishes and not rep.dual_i2_vanishes


# -- keystone equivalence -----------------------------------------------------------


def test_pipeline_equivalence_on_fixtures():
    cases = [heisenberg(10)]
    for h in corpus_biholos(10):
        cases.append(transform_defining(heisenberg(10), h, 10))
    for xi_txt, _, _ in XI_NONSPHERICAL:
        cases.append(defining("-wb + " + xi_txt, 12))
    for d in cases:
        assert pipeline_equivalence(d, 8) is None


def test_self_test_checks_eliminate_once_per_manifold(monkeypatch):
    calls = []
    eliminate = transfer.associated_ode
    monkeypatch.setattr(transfer, "associated_ode", lambda m, k: calls.append(m) or eliminate(m, k))
    d = transform_defining(heisenberg(10), corpus_biholos(10)[0], 10)
    assert pipeline_equivalence(d, 8) is None
    koppisch_check(d.manifold, 8)
    # the ODE of d's manifold is shared by both checks; the dual has its own
    assert calls == [d.manifold, d.manifold.dual(10)]


def test_pipeline_equivalence_deep_on_rigid_fixture():
    """At order 12 the comparison reaches past both pinned witnesses."""
    d = defining("-wb + z*zb + z^2*zb^2", 12)
    lhs = transferred_i1(d.manifold, 12)
    m = SolutionManifold(d.theta)
    rhs = aj6(d).div(m.delta().pow(7))
    k = min(lhs.order, rhs.order)
    assert k >= 5
    assert lhs.truncate(k) == rhs.truncate(k)
    assert lhs.truncate(k).lowest_term() == ((2, 0, 0), GaussRat.of(960))


# -- verdict pipeline ----------------------------------------------------------------


def test_verdict_heisenberg():
    report = sphericality_verdict(heisenberg(), 10)
    assert report.verdict == "spherical-to-order"
    assert report.tested_order >= 4
    assert report.delta_at_origin == GaussRat.of(1)


def test_verdict_builds_one_solution_manifold(monkeypatch):
    built = []
    post_init = SolutionManifold.__post_init__
    monkeypatch.setattr(
        SolutionManifold, "__post_init__", lambda m: built.append(m) or post_init(m)
    )
    report = sphericality_verdict(defining("-wb + z*zb + z^2*zb^2"), 10)
    assert report.verdict == "non-spherical"
    assert len(built) == 1


def test_verdict_flat():
    report = sphericality_verdict(defining("-wb", 8), 8)
    assert report.verdict == "levi-degenerate"


def test_verdict_reality_violated():
    report = sphericality_verdict(defining("-wb + i*z*zb", 8), 8)
    assert report.verdict == "reality-violated"
    assert report.witness_monomial == (1, 1, 0)


def test_verdict_nonspherical_with_pinned_witness():
    report = sphericality_verdict(defining("-wb + z*zb + z^4*zb^2 + z^2*zb^4", 12), 12)
    assert report.verdict == "non-spherical"
    assert report.witness_monomial == (0, 0, 0)
    assert report.witness_coefficient == GaussRat.of(48)
