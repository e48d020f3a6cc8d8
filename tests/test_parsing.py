"""Expression grammar, canonical rendering and the JSON report schema."""

import json
import random

import pytest

from crsphere.errors import ExprSyntaxError
from crsphere.fixtures import random_series
from crsphere.parsing import MAX_COEFF_BITS, MAX_DEPTH, parse_expr, parse_series, render_series
from crsphere.rational import GaussRat
from crsphere.report import Report, render_report
from crsphere.series import TruncSeries

VARS = ("z", "zb", "wb")


def test_heisenberg_input():
    f = parse_series("-wb + z*zb", VARS, 10)
    assert f.terms == {(0, 0, 1): GaussRat.of(-1), (1, 1, 0): GaussRat.of(1)}


def test_zero_literal():
    assert parse_series("0", VARS, 10).is_zero()


def test_imaginary_coefficients():
    f = parse_series("(1/2)*i*z^2 - (1/2)*i*zb^2", VARS, 10)
    assert f.coeff((2, 0, 0)) == GaussRat.of(0, "1/2")
    assert f.coeff((0, 2, 0)) == GaussRat.of(0, "-1/2")


def test_rationals_and_powers():
    f = parse_series("3/4*z^3 - 2*zb", VARS, 10)
    assert f.coeff((3, 0, 0)) == GaussRat.of("3/4")
    assert f.coeff((0, 1, 0)) == GaussRat.of(-2)


def test_no_implicit_multiplication():
    with pytest.raises(ExprSyntaxError):
        parse_expr("2i")
    with pytest.raises(ExprSyntaxError):
        parse_expr("2 z")


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("z + ^2")
    assert err.value.pos == 4


def test_undeclared_variable():
    with pytest.raises(ExprSyntaxError):
        parse_series("z + q", VARS, 10)


def test_exponent_overflow():
    with pytest.raises(ExprSyntaxError):
        parse_series("z^100000", VARS, 10)


def test_nesting_deeper_than_limit_is_a_syntax_error():
    text = "(" * (MAX_DEPTH + 1) + "z" + ")" * (MAX_DEPTH + 1)
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr(text)
    assert err.value.pos == MAX_DEPTH


def test_nesting_at_limit_parses():
    text = "(" * MAX_DEPTH + "z + zb" + ")" * MAX_DEPTH + "^2"
    assert parse_series(text, VARS, 10) == parse_series("z^2 + 2*z*zb + zb^2", VARS, 10)


def test_long_chains_need_no_recursion():
    n = 5000
    total = parse_series(" + ".join(["z"] * n) + " - zb", VARS, 10)
    assert total == parse_series(f"{n}*z - zb", VARS, 10)
    assert parse_series("*".join(["z"] * n), VARS, 10).is_zero()


def test_division_only_inside_rationals():
    with pytest.raises(ExprSyntaxError):
        parse_series("z/2", VARS, 10)


def test_round_trip_on_random_polynomials():
    rng = random.Random(2024)
    for _ in range(60):
        f = random_series(rng, VARS, 6, 8, keep=0.25, min_degree=0)
        assert parse_series(render_series(f), VARS, f.order) == f


def test_round_trip_spec_surface():
    for text in ("-wb + z*zb", "0", "(1/2)*i*z^2 - (1/2)*i*zb^2"):
        f = parse_series(text, VARS, 10)
        assert parse_series(render_series(f), VARS, 10) == f


# -- report schema ---------------------------------------------------------------


def _sample_report():
    return Report(
        verdict="non-spherical",
        tested_order=6,
        witness_monomial=(2, 0, 0),
        witness_coefficient=GaussRat.of(960),
        delta_at_origin=GaussRat.of(1),
        timings={"aj6": 12},
    )


def test_report_key_order_is_fixed():
    doc = json.loads(render_report(_sample_report()))
    assert list(doc) == [
        "verdict",
        "tested_order",
        "witness_monomial",
        "witness_coefficient",
        "delta_at_origin",
        "timings",
    ]
    assert doc["witness_monomial"] == [2, 0, 0]
    assert doc["witness_coefficient"] == {"re": "960/1", "im": "0/1"}


def test_report_rendering_is_deterministic():
    assert render_report(_sample_report()) == render_report(_sample_report())


def test_non_spherical_report_requires_witness():
    with pytest.raises(ValueError):
        Report(verdict="non-spherical", tested_order=6)


def test_levi_degenerate_report_has_no_witness():
    doc = json.loads(render_report(Report(verdict="levi-degenerate", tested_order=8,
                                          delta_at_origin=GaussRat.of(0))))
    assert doc["verdict"] == "levi-degenerate"
    assert doc["witness_monomial"] is None
    assert doc["witness_coefficient"] is None


def test_coefficient_bits_are_bounded():
    # 2^4095 has 4096 bits and 2^4096 one more, as numerator or denominator
    assert parse_series(f"2^{MAX_COEFF_BITS - 1}*z", VARS, 10).bits() == MAX_COEFF_BITS
    for text in (f"2^{MAX_COEFF_BITS}*z", f"(1/2)^{MAX_COEFF_BITS}*z", "(123456789^400)^9999"):
        with pytest.raises(ValueError, match="bits"):
            parse_series(text, VARS, 10)


def test_powers_are_evaluated_at_the_working_order():
    # every node is truncated to the order; the bytes equal the untruncated route
    f = parse_series("(1 + z - 1/3*zb)^40 * (z + wb)^3", VARS, 8)
    want = parse_series("1 + z - 1/3*zb", VARS, 60).pow(40) * parse_series("z + wb", VARS, 60).pow(3)
    assert f == want.truncate(8)
    assert parse_series("(z + zb + wb)^8", VARS, 8).is_zero()
