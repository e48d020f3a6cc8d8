"""Complex defining equations: conversion, reality, Levi form, transforms."""

import random

import pytest

import crsphere.defining as dm
from crsphere.defining import (
    ComplexDefining,
    RealGraph,
    THETA_VARS,
    detect_rigid,
    levi_delta,
    theta_bar,
    to_complex_defining,
    verify_reality,
)
from crsphere.errors import NotSolvableError
from crsphere.fixtures import Biholo, transform_defining
from crsphere.parsing import parse_series, render_series
from crsphere.rational import GaussRat
from crsphere.selftest import run_self_test
from crsphere.series import TruncSeries
from crsphere.transfer import SolutionManifold

from conftest import rigid_part
from random_inputs import random_hermitian_xi, random_real_graph


def defining(text, order=10):
    return ComplexDefining.from_theta(parse_series(text, THETA_VARS, order))


def biholo(f_txt, g_txt, order=10):
    return Biholo(parse_series(f_txt, ("z", "w"), order), parse_series(g_txt, ("z", "w"), order))


# -- conversion -------------------------------------------------------------


def test_convert_sphere_graph():
    phi = parse_series("x^2 + y^2", ("x", "y", "v"), 8)
    d = to_complex_defining(RealGraph(phi), 8)
    assert d.theta == parse_series("-wb + 2*z*zb", THETA_VARS, 8)
    delta, nondegenerate = levi_delta(d)
    assert nondegenerate and delta.constant_term() == GaussRat.of(2)


def test_convert_flat_hyperplane():
    phi = TruncSeries.zero(("x", "y", "v"), 8)
    d = to_complex_defining(RealGraph(phi), 8)
    assert d.theta == parse_series("-wb", THETA_VARS, 8)
    _, nondegenerate = levi_delta(d)
    assert not nondegenerate


def test_convert_v_dependent_graph():
    phi = parse_series("x^2 + y^2 + v*x^2 + v*y^2", ("x", "y", "v"), 8)
    d = to_complex_defining(RealGraph(phi), 8)
    assert not detect_rigid(d.theta)
    # defining identity round trip is re-checked through the reality pass
    assert verify_reality(d) is None


def test_real_graph_invariants_enforced():
    with pytest.raises(ValueError):
        RealGraph(parse_series("x", ("x", "y", "v"), 8))
    with pytest.raises(ValueError):
        RealGraph(parse_series("i*x^2", ("x", "y", "v"), 8))


# -- reality -----------------------------------------------------------------


def test_heisenberg_reality():
    assert verify_reality(defining("-wb + z*zb")) is None


def test_rigid_hermitian_reality():
    assert verify_reality(defining("-wb + z*zb + z^2*zb^2")) is None


def test_reality_violation_witness():
    witness = verify_reality(defining("-wb + i*z*zb"))
    assert witness is not None
    mono, coeff = witness
    assert mono == (1, 1, 0)
    assert coeff == GaussRat.of(0, 2)


def _count_compositions(monkeypatch):
    """Record the defining function of every ``Theta o Theta_bar`` composition."""
    composed = []
    conj = dm.theta_bar
    monkeypatch.setattr(dm, "theta_bar", lambda theta: composed.append(theta) or conj(theta))
    return composed


def test_reality_witness_is_kept_without_order(monkeypatch):
    composed = _count_compositions(monkeypatch)
    d = defining("-wb + i*z*zb")
    first = verify_reality(d)
    assert verify_reality(d) == first and len(composed) == 1
    assert first == verify_reality(defining("-wb + i*z*zb", 6)) and len(composed) == 2


def test_self_test_composes_each_fixture_once(monkeypatch):
    composed = _count_compositions(monkeypatch)
    run_self_test()
    fixtures = [(theta.order, tuple(sorted(theta.terms.items()))) for theta in composed]
    # Heisenberg and the three transformed images: the images are verified
    # once, inside ``transform_defining``
    assert len(fixtures) == 4
    assert len(set(fixtures)) == 4


def test_reality_conjugation_symmetry():
    """The residual of the conjugate-relabelled defining function is the
    conjugate of the residual (so the second functional equation is
    covered by the first)."""
    rng = random.Random(7)
    for _ in range(5):
        xi = random_hermitian_xi(rng, 8, max_degree=4)
        theta = parse_series("-wb", THETA_VARS, 8) + xi.extend(THETA_VARS)
        # perturb away from reality to get a nonzero residual
        theta = theta + parse_series("i*z^2*zb", THETA_VARS, 8)
        d = ComplexDefining.from_theta(theta)
        tb = theta.substitute({"wb": theta_bar(theta)}) - TruncSeries.variable(
            "w", ("z", "zb", "w"), 8
        )
        conj_theta = theta.conjugate({"z": "zb", "zb": "z", "wb": "wb"}).reorder(THETA_VARS)
        dc = ComplexDefining.from_theta(conj_theta)
        tb_c = conj_theta.substitute({"wb": theta_bar(conj_theta)}) - TruncSeries.variable(
            "w", ("z", "zb", "w"), 8
        )
        expected = tb.conjugate({"z": "zb", "zb": "z", "w": "w"}).reorder(("z", "zb", "w"))
        assert (tb_c - expected).is_zero()


# -- Levi form and rigidity ----------------------------------------------------


def test_levi_delta_heisenberg_is_one():
    delta, nondegenerate = levi_delta(defining("-wb + z*zb"))
    assert nondegenerate
    assert delta == TruncSeries.one(THETA_VARS, delta.order)


def test_levi_delta_flat_is_zero():
    delta, nondegenerate = levi_delta(defining("-wb"))
    assert not nondegenerate and delta.is_zero()


def test_levi_delta_rigid_is_xi_mixed_derivative():
    d = defining("-wb + z*zb + z^2*zb^2")
    delta, _ = levi_delta(d)
    xi = rigid_part(d.theta)
    assert (delta - xi.derive("z").derive("zb").extend(THETA_VARS)).is_zero()


def test_levi_delta_is_the_manifold_determinant():
    """``levi_delta`` reads ``det(a|b)`` of the solution manifold ``y = Theta``:
    equal to a freshly built manifold's, known order included."""
    heis = defining("-wb + z*zb")
    image = transform_defining(heis, biholo("z + z*w", "w + w^2"), 10)
    dense_phi = parse_series("x^2 + y^2 + x^2*y*v + v^2*x^2", ("x", "y", "v"), 8)
    dense = to_complex_defining(RealGraph(dense_phi), 8)
    assert not detect_rigid(dense.theta)
    for d in (heis, image, dense):
        delta, _ = levi_delta(d)
        fresh = SolutionManifold(d.theta).delta()
        assert delta == fresh and delta.order == fresh.order
        assert delta is d.manifold.delta()


def test_detect_rigid():
    assert detect_rigid(parse_series("-wb + z*zb", THETA_VARS, 10))
    assert not detect_rigid(parse_series("-wb + z*zb + z*zb*wb", THETA_VARS, 10))


# -- biholomorphic transforms -----------------------------------------------------


def test_identity_transform_fixes_heisenberg():
    d = defining("-wb + z*zb")
    ident = biholo("z", "w")
    image = transform_defining(d, ident, 10)
    assert image.theta == d.theta


def test_w_shift_transform_is_nonrigid_and_real():
    d = defining("-wb + z*zb")
    image = transform_defining(d, biholo("z", "w + w^2"), 10)
    assert not detect_rigid(image.theta)
    _, nondegenerate = levi_delta(image)
    assert nondegenerate


def test_z_shift_transform_keeps_levi_unit():
    d = defining("-wb + z*zb")
    image = transform_defining(d, biholo("z + z^2", "w"), 10)
    delta, nondegenerate = levi_delta(image)
    assert nondegenerate
    assert not delta.constant_term().is_zero()


def test_transform_composition():
    d = defining("-wb + z*zb")
    h1 = biholo("z", "w + w^2")
    h2 = biholo("z + z^2", "w")
    image_two_steps = transform_defining(transform_defining(d, h1, 10), h2, 10)
    # apply h1 first, then h2
    images = {"z": h1.f, "w": h1.g}
    composed = Biholo(h2.f.substitute(images), h2.g.substitute(images))
    image_composed = transform_defining(d, composed, 10)
    assert (image_two_steps.theta - image_composed.theta).is_zero()


def test_swap_map_image_not_graphed():
    d = defining("-wb + z*zb")
    with pytest.raises(NotSolvableError):
        transform_defining(d, biholo("w", "z"), 10)


def test_biholo_requires_invertible_linear_part():
    with pytest.raises(ValueError):
        biholo("z + w", "z + w")
