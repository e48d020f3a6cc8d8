"""Series-core examples and the randomized algebra-law suites."""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crsphere.errors import ArityError, CompositionError, NonUnitError
from crsphere.parsing import parse_series
from crsphere.rational import GaussRat
from crsphere.series import TruncSeries

from conftest import VARS3, common_eq, gauss_rats, series3


def s(text, vars=VARS3, order=10):
    return parse_series(text, vars, order)


# -- arithmetic -------------------------------------------------------------


def test_difference_of_squares():
    f = s("1 + z")
    g = s("1 - z")
    assert f * g == s("1 - z^2")


def test_additive_inverse():
    f = s("3*z*zb - wb + i*z^2")
    assert (f + (-f)).is_zero()


def test_mul_known_order_rule():
    f = parse_series("z*zb", VARS3, 4)
    g = parse_series("wb", VARS3, 4)
    prod = f * g
    # min(4 + 1, 4 + 2, 8) = 5
    assert prod.order == 5
    assert prod == parse_series("z*zb*wb", VARS3, 5)


def test_scalar_multiplication():
    f = s("z + wb")
    assert f.scale(GaussRat.of(0)).is_zero()
    assert f.scale(GaussRat.i()) == s("i*z + i*wb")
    assert f.scale(GaussRat.i()).order == f.order


def test_arity_mismatch_rejected():
    with pytest.raises(ArityError):
        s("z") + parse_series("x", ("x", "y"), 10)


def _loop_pow(f, n):
    """Reference for ``TruncSeries.pow``: ``n`` multiplications, starting from one."""
    result = TruncSeries.one(f.vars, f.order)
    for _ in range(n):
        result = result * f
    return result


_MONOS2 = list(itertools.product(range(6), repeat=2))


@st.composite
def series2(draw):
    """Two-variable series with known order 0..8 and valuation drawn up to 3."""
    order = draw(st.integers(0, 8))
    low = draw(st.integers(0, 3))
    monos = [m for m in _MONOS2 if sum(m) >= low]
    terms = draw(st.dictionaries(st.sampled_from(monos), gauss_rats, max_size=5))
    return TruncSeries(("z", "w"), terms, order)


@settings(max_examples=300, deadline=None)
@given(series2(), st.integers(0, 9))
@example(TruncSeries.zero(("z", "w"), 5), 3)
@example(TruncSeries.constant(GaussRat.of(2), ("z", "w"), 0), 4)
@example(TruncSeries(("z", "w"), {(1, 0): GaussRat.of(1), (0, 2): GaussRat.of(3)}, 6), 7)
def test_pow_by_squaring_matches_repeated_multiplication(f, n):
    # ``==`` compares the terms, the known order and the variables
    assert f.pow(n) == _loop_pow(f, n)


# -- derivation ----------------------------------------------------------------


def test_power_rule():
    assert s("z^2*zb").derive("z") == parse_series("2*z*zb", VARS3, 9)


def test_derivative_of_normalized_linear_part():
    assert s("-wb + z*zb").derive("wb") == parse_series("-1", VARS3, 9)


def test_derive_unknown_variable():
    with pytest.raises(ArityError):
        s("z").derive("q")


@settings(max_examples=200, deadline=None)
@given(series3())
def test_mixed_partials_commute(f):
    assert f.derive("z").derive("wb") == f.derive("wb").derive("z")


# -- substitution ----------------------------------------------------------------


def test_substitution_reality_identity_for_heisenberg():
    # Theta(z, zb, Theta_bar) for the Heisenberg sphere collapses to w
    f = s("-wb + z*zb")
    target = ("z", "zb", "w")
    image = parse_series("-w + z*zb", target, 10)
    w = TruncSeries.variable("w", target, 10)
    assert f.substitute({"wb": image, "z": parse_series("zb", target, 10),
                         "zb": parse_series("z", target, 10)}) == w


def test_identity_substitution():
    f = s("z^2 - i*zb*wb")
    images = {v: TruncSeries.variable(v, VARS3, f.order) for v in VARS3}
    assert f.substitute(images) == f


def test_univariate_composition_truncates():
    f = parse_series("x^2", ("x",), 4)
    g = parse_series("x + x^2", ("x",), 4)
    assert f.substitute({"x": g}) == parse_series("x^2 + 2*x^3", ("x",), 4)


def test_substitution_rejects_constant_terms():
    f = s("z")
    with pytest.raises(CompositionError):
        f.substitute({"z": s("1 + z")})


def test_substitution_rejects_space_mismatch():
    f = s("z + wb")
    with pytest.raises(ArityError):
        f.substitute({"z": parse_series("x", ("x", "y"), 10)})


# -- division -----------------------------------------------------------------


def test_geometric_series():
    one = parse_series("1", ("z",), 4)
    denom = parse_series("1 - z", ("z",), 4)
    assert one.div(denom) == parse_series("1 + z + z^2 + z^3", ("z",), 4)


def test_self_division():
    f = s("1 + z*zb - i*wb")
    assert f.div(f) == s("1").truncate(f.order)


def test_division_example_with_remainder_check():
    f = parse_series("z*zb", VARS3, 6)
    g = parse_series("1 + z*zb", VARS3, 6)
    assert f.div(g) == parse_series("z*zb - z^2*zb^2", VARS3, 6)


def test_non_unit_divisor_rejected():
    with pytest.raises(NonUnitError):
        s("1").div(s("z"))


# -- conjugation -----------------------------------------------------------------


def test_conjugate_relabel():
    f = s("-wb + z*zb")
    g = f.conjugate({"z": "zb", "zb": "z", "wb": "w"})
    assert g.reorder(("z", "zb", "w")) == parse_series("-w + z*zb", ("z", "zb", "w"), 10)


def test_conjugate_coefficients():
    f = parse_series("i*z^2", ("z", "zb"), 8)
    g = f.conjugate({"z": "zb", "zb": "z"})
    assert g.reorder(("z", "zb")) == parse_series("-i*zb^2", ("z", "zb"), 8)


def test_conjugate_requires_bijection():
    with pytest.raises(ArityError):
        s("z").conjugate({"z": "zb"})


@settings(max_examples=200, deadline=None)
@given(series3())
def test_conjugation_involution(f):
    relabel = {"z": "zb", "zb": "z", "wb": "w"}
    inverse = {"zb": "z", "z": "zb", "w": "wb"}
    assert f.conjugate(relabel).conjugate(inverse) == f


# -- randomized algebra laws (the series-core property suite) -------------------


@settings(max_examples=200, deadline=None)
@given(series3(), series3(), series3())
def test_ring_laws(f, g, h):
    assert common_eq((f + g) + h, f + (g + h))
    assert f + g == g + f
    assert common_eq((f * g) * h, f * (g * h))
    assert f * g == g * f
    assert common_eq(f * (g + h), f * g + f * h)


@settings(max_examples=200, deadline=None)
@given(series3(), series3())
def test_difference_is_known_to_common_order(f, g):
    """``f - g`` is known to ``min(Kf, Kg)``, so no caller has to truncate
    both operands before comparing them."""
    k = min(f.order, g.order)
    assert f - g == f.truncate(k) - g.truncate(k)
    assert (f - g).order == k


@settings(max_examples=200, deadline=None)
@given(series3(), series3())
def test_leibniz_rule(f, g):
    for var in VARS3:
        lhs = (f * g).derive(var)
        rhs = f.derive(var) * g + f * g.derive(var)
        assert common_eq(lhs, rhs)


@settings(max_examples=200, deadline=None)
@given(series3(), series3())
def test_divide_multiply_round_trip(f, g):
    if g.constant_term().is_zero():
        g = g + TruncSeries.one(VARS3, g.order)
    h = f.div(g)
    assert common_eq(h * g, f)


@settings(max_examples=200, deadline=None)
@given(series3(), series3())
def test_substitution_chain_rule(f, g):
    # univariate instance: f(x) composed with x -> g(t)
    fx = TruncSeries(("x",), {(m[0],): c for m, c in f.terms.items() if m[1] == m[2] == 0},
                     f.order)
    gt = TruncSeries(("t",), {(m[0],): c for m, c in g.terms.items() if m[1] == m[2] == 0},
                     g.order)
    if not gt.constant_term().is_zero():
        gt = gt - TruncSeries.constant(gt.constant_term(), ("t",), gt.order)
    lhs = fx.substitute({"x": gt}).derive("t")
    rhs = fx.derive("x").substitute({"x": gt}) * gt.derive("t")
    assert common_eq(lhs, rhs)
