"""Acceptance gate: one test per criterion, each printing a PASS line.

Every tolerance is exact equality of Gaussian-rational coefficients
(after truncation to the common known order where two independently
computed series are compared).  Run with ``pytest -v -s`` to see the
per-criterion lines.
"""

import random
import time

import crsphere.fixtures as fixtures
from crsphere.defining import (
    ComplexDefining,
    RealGraph,
    THETA_VARS,
    levi_delta,
    to_complex_defining,
    verify_reality,
)
from crsphere.fixtures import (
    RIGID_SEEDS,
    REALITY_SEEDS,
    SECTION5_SEEDS,
    XI_NONSPHERICAL,
    corpus_biholos,
    heisenberg,
    random_gauss,
    random_series,
    transform_defining,
)
from crsphere.invariants import aj6, koppisch_check, sphericality_verdict
from crsphere.parsing import parse_series
from crsphere.rational import GaussRat
from crsphere.selftest import (
    apply_dyx, pipeline_equivalence, rigid_invariant, section5_check, transferred_i1
)
from crsphere.series import TruncSeries
from crsphere.solve import implicit_solve
from crsphere.transfer import SolutionManifold, dual_manifold

from random_inputs import random_hermitian_xi, random_real_graph, random_solvable_q
from reference_invariants import aj4


def test_criterion_1_heisenberg_sphere():
    start = time.perf_counter()
    d = heisenberg(10)
    assert verify_reality(d) is None
    delta, nondegenerate = levi_delta(d)
    assert nondegenerate
    assert delta == TruncSeries.one(THETA_VARS, delta.order)
    assert aj4(d).is_zero()
    assert aj6(d).is_zero()
    report = sphericality_verdict(d)
    assert report.verdict == "spherical-to-order"
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    print(f"[criterion 1] PASS heisenberg spherical at order 10 ({elapsed:.2f}s)")


def test_criterion_2_sphericality_invariance():
    start = time.perf_counter()
    d = heisenberg(10)
    for i, h in enumerate(corpus_biholos(10), start=1):
        image = transform_defining(d, h, 10)
        assert verify_reality(image) is None
        obstruction = aj6(image)
        assert obstruction.is_zero(), f"image {i} not spherical"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"[criterion 2] PASS three transformed images spherical ({elapsed:.2f}s)")


def test_criterion_3_rigid_formula_fidelity():
    start = time.perf_counter()
    for seed in RIGID_SEEDS:
        rng = random.Random(seed)
        xi = random_hermitian_xi(rng, 8, max_degree=5)
        rigid_route = rigid_invariant(xi)
        theta = parse_series("-wb", THETA_VARS, 8) + xi.extend(THETA_VARS)
        d = ComplexDefining.from_theta(theta)
        m = SolutionManifold(theta)
        operator_route = apply_dyx(m, apply_dyx(m, aj4(d)))
        assert (rigid_route.extend(THETA_VARS) - operator_route).is_zero(), seed
    elapsed = time.perf_counter() - start
    print(f"[criterion 3] PASS rigid seven-term formula on 5 seeds ({elapsed:.2f}s)")


def _corpus_fixtures(order):
    out = [heisenberg(order)]
    for h in corpus_biholos(order):
        out.append(transform_defining(heisenberg(order), h, order))
    for xi_txt, _, _ in XI_NONSPHERICAL:
        out.append(
            ComplexDefining.from_theta(parse_series("-wb + " + xi_txt, THETA_VARS, order))
        )
    return out


def test_criterion_4_pipeline_equivalence():
    start = time.perf_counter()
    for d in _corpus_fixtures(8):
        assert pipeline_equivalence(d, 8) is None
    elapsed = time.perf_counter() - start
    print(f"[criterion 4] PASS transferred I1 equals aj6/delta^7 on 6 fixtures ({elapsed:.2f}s)")


def test_criterion_5_section5_regression():
    start = time.perf_counter()
    for seed in SECTION5_SEEDS:
        section5_check(seed)  # the self-test's third-order check list
    elapsed = time.perf_counter() - start
    print(f"[criterion 5] PASS expanded third-order table on 3 seeds ({elapsed:.2f}s)")


def test_criterion_6_duality():
    start = time.perf_counter()
    d = heisenberg(10)
    dual = dual_manifold(SolutionManifold(d.theta), 8)
    conj = d.theta.conjugate({"z": "zb", "zb": "z", "wb": "wb"}).rename(
        {"zb": "x", "z": "a", "wb": "b"}
    )
    assert (dual.q - conj).is_zero()
    rng = random.Random(99)
    for _ in range(3):
        q = random_solvable_q(rng, 8)
        m = SolutionManifold(q)
        assert (dual_manifold(dual_manifold(m, 8), 8).q - q).is_zero()
    for d in _corpus_fixtures(10):
        koppisch_check(SolutionManifold(d.theta), 8)
    elapsed = time.perf_counter() - start
    print(f"[criterion 6] PASS duality and exchange equivalences ({elapsed:.2f}s)")


def test_criterion_7_non_spherical_detection():
    start = time.perf_counter()
    pinned_txt, pinned_mono, pinned_coeff = XI_NONSPHERICAL[0]
    candidates = [pinned_txt] + [
        f"z*zb + z^{k}*zb^2 + z^2*zb^{k}" for k in (5, 6, 7)
    ]
    found = None
    for xi_txt in candidates:
        xi = parse_series(xi_txt, ("z", "zb"), 12)
        rigid_route = rigid_invariant(xi)
        if rigid_route.is_zero():
            continue  # escalate degree
        found = xi_txt
        theta = parse_series("-wb + " + xi_txt, THETA_VARS, 12)
        d = ComplexDefining.from_theta(theta)
        cleared = aj6(d)
        transferred = transferred_i1(d.manifold, 12)
        low_rigid = rigid_route.lowest_term()
        low_cleared = cleared.lowest_term()
        low_transferred = transferred.lowest_term()
        # delta(0) = 1 for this corpus, so the unit relation is the identity
        delta0 = SolutionManifold(theta).delta().constant_term()
        assert delta0 == GaussRat.of(1)
        assert low_rigid[0] + (0,) == low_cleared[0] == low_transferred[0]
        assert low_rigid[1] == low_cleared[1] == low_transferred[1]
        break
    assert found == pinned_txt, "escalation changed the pinned fixture"
    assert low_rigid == (pinned_mono, pinned_coeff)
    elapsed = time.perf_counter() - start
    print(
        f"[criterion 7] PASS witness {low_rigid[0]} -> {low_rigid[1]} agrees across "
        f"three pipelines ({elapsed:.2f}s)"
    )


def test_criterion_8_reality_round_trip():
    start = time.perf_counter()
    for seed in REALITY_SEEDS:
        rng = random.Random(seed)
        phi = random_real_graph(rng, 8, max_degree=4)
        d = to_complex_defining(RealGraph(phi), 8)
        assert verify_reality(d) is None, seed
    elapsed = time.perf_counter() - start
    print(f"[criterion 8] PASS five converted real graphs satisfy reality ({elapsed:.2f}s)")


def test_criterion_9_property_suites():
    start = time.perf_counter()
    vars3 = ("z", "zb", "wb")
    rng = random.Random(31415)

    def rand():
        return random_series(rng, vars3, 4, rng.randint(4, 8), keep=0.25, min_degree=0)

    for _ in range(200):  # ring laws
        f, g, h = rand(), rand(), rand()
        assert f + g == g + f
        assert f * g == g * f
        assert ((f + g) + h - (f + (g + h))).is_zero()
        assert ((f * g) * h - f * (g * h)).is_zero()
        assert (f * (g + h) - (f * g + f * h)).is_zero()
    for _ in range(200):  # Leibniz
        f, g = rand(), rand()
        var = rng.choice(vars3)
        assert ((f * g).derive(var) - (f.derive(var) * g + f * g.derive(var))).is_zero()
    for _ in range(200):  # divide / multiply round trip
        f, g = rand(), rand()
        if g.constant_term().is_zero():
            g = g + TruncSeries.one(vars3, g.order)
        assert (f.div(g) * g - f).is_zero()
    for _ in range(200):  # implicit solve residuals (checked internally too)
        space = ("u", "v", "b")
        terms = {(0, 1, 0): random_gauss(rng), (0, 0, 1): random_gauss(rng)}
        for _k in range(3):
            mono = tuple(rng.randint(0, 2) for _ in range(3))
            if 2 <= sum(mono) < 6:
                terms[mono] = random_gauss(rng)
        eq = TruncSeries(space, terms, 6)
        if eq.coeff((0, 0, 1)).is_zero():
            continue
        sol = implicit_solve([eq], ["b"], 6)
        assert eq.substitute({"b": sol["b"]}).is_zero()
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    print(f"[criterion 9] PASS property suites, 200 cases each ({elapsed:.2f}s)")
