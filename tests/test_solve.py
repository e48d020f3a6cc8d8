"""Implicit solve examples and the randomized residual suite."""

import random

import pytest

import crsphere.solve
import crsphere.transfer as tr
from crsphere.errors import NotSolvableError
from crsphere.fixtures import corpus_biholos, heisenberg, random_gauss, transform_defining
from crsphere.parsing import parse_series
from crsphere.rational import ZERO
from crsphere.series import TruncSeries
from crsphere.solve import _invert_matrix, implicit_solve


def _full_residual_solve(eqs, unknowns, order):
    """Reference for ``implicit_solve``: step ``d`` composes each whole
    equation at full order and reads the degree-``d`` part of the residual."""
    space = eqs[0].vars
    knowns = tuple(v for v in space if v not in unknowns)

    def unit_mono(var):
        return tuple(1 if v == var else 0 for v in space)

    jac = [[eq.coeff(unit_mono(u)) for u in unknowns] for eq in eqs]
    jinv = _invert_matrix(jac)

    sols = {u: TruncSeries.zero(knowns, order) for u in unknowns}
    for d in range(1, order):
        residuals = [eq.substitute({u: sols[u] for u in unknowns}) for eq in eqs]
        parts = [
            {m: c for m, c in r.terms.items() if sum(m) == d} for r in residuals
        ]
        if not any(parts):
            continue
        monos = set()
        for p in parts:
            monos.update(p)
        for j, u in enumerate(unknowns):
            delta = {}
            for mono in monos:
                val = ZERO
                for i in range(len(eqs)):
                    val = val + jinv[j][i] * parts[i].get(mono, ZERO)
                if not val.is_zero():
                    delta[mono] = -val
            if delta:
                sols[u] = sols[u] + TruncSeries(knowns, delta, order)
    return sols


def test_heisenberg_elimination():
    # w = Theta, yx = Theta_z solved for (zb, wb): the Segre-variety jets
    space = ("z", "w", "yx", "zb", "wb")
    e1 = parse_series("-w + (-wb + z*zb)", space, 8)
    e2 = parse_series("-yx + zb", space, 8)
    sol = implicit_solve([e1, e2], ["zb", "wb"], 8)
    knowns = ("z", "w", "yx")
    assert sol["zb"] == parse_series("yx", knowns, 8)
    assert sol["wb"] == parse_series("-w + z*yx", knowns, 8)


def test_linear_solve():
    eq = parse_series("-y + x + b", ("x", "y", "b"), 8)
    sol = implicit_solve([eq], ["b"], 8)
    assert sol["b"] == parse_series("y - x", ("x", "y"), 8)


def test_quadratic_solve():
    eq = parse_series("-y + b + b^2", ("y", "b"), 4)
    sol = implicit_solve([eq], ["b"], 4)
    assert sol["b"] == parse_series("y - y^2 + 2*y^3", ("y",), 4)


def test_singular_jacobian_reported():
    eq = parse_series("-y + b^2", ("y", "b"), 6)
    with pytest.raises(NotSolvableError):
        implicit_solve([eq], ["b"], 6)


def test_nonvanishing_equation_rejected():
    eq = parse_series("1 - y + b", ("y", "b"), 6)
    with pytest.raises(NotSolvableError):
        implicit_solve([eq], ["b"], 6)


def test_insufficient_order_rejected():
    eq = parse_series("-y + b", ("y", "b"), 4)
    with pytest.raises(NotSolvableError):
        implicit_solve([eq], ["b"], 6)


def test_residual_identity_randomized():
    """200 random two-unknown systems: substituting the solutions back
    yields the zero series to the requested order, and the solutions are
    those of the full-residual reference."""
    space = ("u", "v", "p", "q")
    order = 6
    count = 0
    rng = random.Random(424242)
    while count < 200:
        terms = {}
        for mono in [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]:
            if rng.random() < 0.8:
                terms[mono] = random_gauss(rng)
        higher = {}
        for _ in range(4):
            mono = tuple(rng.randint(0, 2) for _ in range(4))
            if 2 <= sum(mono) < order:
                higher[mono] = random_gauss(rng)
        e1 = TruncSeries(space, {**terms, **higher}, order)
        terms2 = {m: random_gauss(rng) for m in terms if rng.random() < 0.9}
        e2 = TruncSeries(space, {**terms2, **{m: c for m, c in higher.items() if rng.random() < 0.5}}, order)
        jac = [
            [e1.coeff((0, 0, 1, 0)), e1.coeff((0, 0, 0, 1))],
            [e2.coeff((0, 0, 1, 0)), e2.coeff((0, 0, 0, 1))],
        ]
        det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
        if det.is_zero():
            continue
        count += 1
        sol = implicit_solve([e1, e2], ["p", "q"], order)
        assert sol == _full_residual_solve([e1, e2], ["p", "q"], order)
        for eq in (e1, e2):
            residual = eq.substitute({"p": sol["p"], "q": sol["q"]})
            assert residual.is_zero()
        assert sol["p"].valuation() >= 1 and sol["q"].valuation() >= 1


@pytest.mark.parametrize("image", [False, True])
def test_solve_parameters_matches_full_residual_reference(image, monkeypatch):
    d = heisenberg(10)
    if image:
        d = transform_defining(d, corpus_biholos(10)[0], 10)
    got = tr.solve_parameters(d.manifold, 10)
    monkeypatch.setattr(crsphere.solve, "implicit_solve", _full_residual_solve)
    want = tr.solve_parameters(d.manifold, 10)
    assert got == want
