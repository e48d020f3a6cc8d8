"""Expression grammar, canonical rendering and the JSON report schema."""

import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_parser
from crsphere import parsing, series
from crsphere.errors import ExprSyntaxError
from crsphere.fixtures import random_series
from crsphere.parsing import (
    MAX_COEFF_BITS,
    MAX_DEPTH,
    MAX_EXPONENT,
    parse_series,
    render_series,
)
from crsphere.rational import GaussRat
from crsphere.report import Report, render_report
from crsphere.series import TruncSeries

from conftest import check_theta

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
        parse_series("2i", VARS, 10)
    with pytest.raises(ExprSyntaxError):
        parse_series("2 z", VARS, 10)


def test_syntax_error_carries_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_series("z + ^2", VARS, 10)
    assert err.value.pos == 4


def test_undeclared_variable():
    with pytest.raises(ExprSyntaxError) as err:
        parse_series("z + q", VARS, 10)
    assert str(err.value) == "undeclared variable 'q' (at position 4)"  # the offset of q


def test_errors_come_in_text_order():
    # the first error in the text is reported, whatever its kind
    with pytest.raises(ExprSyntaxError, match=r"^undeclared variable 'q' \(at position 4\)$"):
        parse_series("z + q + (zb", VARS, 10)
    with pytest.raises(ValueError, match="bits"):
        parse_series(f"2^{MAX_COEFF_BITS}*z + (zb", VARS, 10)
    with pytest.raises(ExprSyntaxError, match=r"^expected a number, variable, 'i' or '\(' \(at position 10\)$"):
        parse_series(f"z + (zb + ) * 2^{MAX_COEFF_BITS}", VARS, 10)
    # a term of literals fails at the factor whose product passes the bound,
    # before a later error of the same term; a bound passed while the
    # value stays small is no error
    wide = f"{2 ** 2100}*z*{2 ** 2100}"
    with pytest.raises(ValueError, match="bits"):
        parse_series(f"{wide}*zb/2", VARS, 10)
    with pytest.raises(ValueError, match="bits"):
        parse_series(f"(z + 1)*{2 ** 3000}*{2 ** 1200}*zb/2", VARS, 10)
    cancelling = f"{2 ** 3000}/{2 ** 2999}*z*{2 ** 2100}"
    with pytest.raises(ExprSyntaxError) as err:
        parse_series(f"{cancelling}*zb/2", VARS, 10)
    assert err.value.pos == len(cancelling) + 3
    # factors after a monomial truncated away are still read and checked
    with pytest.raises(ValueError, match="bits"):
        parse_series(f"z^10*{2 ** 4096}", VARS, 10)
    with pytest.raises(ExprSyntaxError, match="exceeds"):
        parse_series(f"z^10*zb^{MAX_EXPONENT + 1}", VARS, 10)


def test_exponent_overflow():
    with pytest.raises(ExprSyntaxError):
        parse_series("z^100000", VARS, 10)


def test_nesting_deeper_than_limit_is_a_syntax_error():
    text = "(" * (MAX_DEPTH + 1) + "z" + ")" * (MAX_DEPTH + 1)
    with pytest.raises(ExprSyntaxError) as err:
        parse_series(text, VARS, 10)
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


# -- the evaluating descent against the reference parser --------------------------

_SPACES = (VARS, ("x", "y", "v"), ("z", "zb"), ("a",))
_UNDECLARED = ("q", "w", "zz", "x1")
# big coefficients, each met as a value of its own: 2^4096 is one bit over
_BIG = ("2^4000", "2^200", "7^1400", "(1/3)^2000", f"2^{MAX_COEFF_BITS}", f"{2 ** 4095}")
# literals that take the running bit bound of a product past MAX_COEFF_BITS
# in mid-term: the wide ones also its exact value, the cancelling ones not
_WIDE = (str(2 ** 2100), f"1/{3 ** 1400}", f"{5 ** 900}/{3 ** 1300}")
_CANCELLING = (f"{2 ** 3000}/{2 ** 2999}", f"{3 ** 2000}/{3 ** 1999}", f"{7 * 6 ** 1300}/{6 ** 1300}")


def _base(draw, ctx, depth):
    """A ``base`` of the grammar, and its kind: ``number``, ``big`` (a
    factor that takes no exponent), ``group`` or ``atom``."""
    kind = draw(st.integers(0, 7 if depth < 2 else 4))
    if kind == 0:
        if ctx["big"] and draw(st.integers(0, 9)) == 0:
            return draw(st.sampled_from(_BIG)), "big"
        return str(draw(st.integers(0, 30))), "number"
    if kind == 1:
        return f"{draw(st.integers(0, 12))}/{draw(st.integers(1, 9))}", "number"
    if kind == 2:
        return "i", "atom"
    if kind in (3, 4):
        if draw(st.integers(0, 24)) == 0:
            ctx["undeclared"] = True
            return draw(st.sampled_from([v for v in _UNDECLARED if v not in ctx["vars"]])), "atom"
        return draw(st.sampled_from(ctx["vars"])), "atom"
    return f"({_expr(draw, ctx, depth + 1)})", "group"


def _factor(draw, ctx, depth):
    base, kind = _base(draw, ctx, depth)
    exponent = draw(st.sampled_from((None, None, None, 0, 1, 2, 3, 5, MAX_EXPONENT)))
    if exponent == MAX_EXPONENT and (kind == "group" or kind == "number" and not ctx["big"]):
        exponent = 4  # keep the squarings cheap, and syntax-error cases free of big values
    return base if exponent is None or kind == "big" else f"{base}^{exponent}"


def _chain(draw, ctx):
    """A long term of numbers, ``p/q``, ``i``, ``i^n``, variables and
    variable powers, with cancelling literals and, if ``big``, wide ones."""
    vars_ = ctx["vars"]
    atoms = st.one_of(
        st.integers(0, 30).map(str),
        st.builds("{}/{}".format, st.integers(0, 12), st.integers(1, 9)),
        st.builds("i^{}".format, st.integers(0, 9)) | st.just("i"),
        st.sampled_from(vars_),
        st.builds("{}^{}".format, st.sampled_from(vars_), st.integers(0, 20)),
        st.sampled_from(_CANCELLING + (_WIDE if ctx["big"] else ())),
    )
    return "*".join(draw(st.lists(atoms, min_size=2, max_size=40)))


def _term(draw, ctx, depth):
    if draw(st.integers(0, 4)) == 0:
        return _chain(draw, ctx)
    if ctx["big"] and depth == 0 and draw(st.integers(0, 6)) == 0:
        v = draw(st.sampled_from(ctx["vars"]))
        if draw(st.booleans()):
            # a monomial truncated away, then multiplied by big values
            power = ctx["order"] + draw(st.integers(0, 2))
            bigs = draw(st.lists(st.sampled_from(_BIG), min_size=1, max_size=3))
            return "*".join([f"{v}^{power}", *bigs])
        # partial sums over the bound; the total over it only in the last form
        return draw(st.sampled_from((
            f"(2^4095*{v} + 2^4095*{v} - 2^4095*{v})",
            "(2^4095 + 2^4095 - 2^4095)",
            f"(2^4095*{v} + 2^4095*{v})",
        )))
    count = draw(st.integers(1, 3 if depth < 2 else 1))
    return "*".join(_factor(draw, ctx, depth) for _ in range(count))


def _expr(draw, ctx, depth=0):
    text = ("-" if draw(st.booleans()) else "") + _term(draw, ctx, depth)
    for _ in range(draw(st.integers(0, 3 if depth < 2 else 1))):
        text += draw(st.sampled_from((" + ", " - "))) + _term(draw, ctx, depth)
    return text


def _nesting(text):
    depth = deepest = 0
    for ch in text:
        depth += (ch == "(") - (ch == ")")
        deepest = max(deepest, depth)
    return deepest


# syntax errors, each given the text and a declared variable
_SYNTAX_ERRORS = (
    lambda t, v: t + " +",
    lambda t, v: t + ")",
    lambda t, v: "(" + t,
    lambda t, v: f"{t} {v}",
    lambda t, v: t + " + $",
    lambda t, v: f"{t} * {v}^{MAX_EXPONENT + 1}",
    lambda t, v: "1/0 + " + t,
    lambda t, v: t + " - 2^",
    lambda t, v: "^2 + " + t,
    lambda t, v: f"{t} * {v}/2",
    lambda t, v: f"{t}*{v}*i^",
    lambda t, v: "(" * (MAX_DEPTH + 1 - _nesting(t)) + t + ")" * (MAX_DEPTH + 1 - _nesting(t)),
)


@st.composite
def _inputs(draw):
    """``(text, vars, order, single)``: valid grammar with big values, or
    with no big value and one syntax error; ``single`` when at most one
    error is in the text, or all of its errors are met while evaluating."""
    vars_ = draw(st.sampled_from(_SPACES))
    order = draw(st.integers(0, 16))
    big = draw(st.integers(0, 2)) > 0
    ctx = {"vars": vars_, "order": order, "big": big, "undeclared": False}
    text = _expr(draw, ctx)
    if big:
        if draw(st.integers(0, 4)) == 0:  # nested exactly as deep as allowed
            pad = MAX_DEPTH - _nesting(text)
            text = "(" * pad + text + ")" * pad
        return text, vars_, order, True
    text = draw(st.sampled_from(_SYNTAX_ERRORS))(text, vars_[0])
    return text, vars_, order, not ctx["undeclared"]


def _outcome(parse, text, vars_, order):
    try:
        f = parse(text, vars_, order)
    except (ExprSyntaxError, ValueError) as exc:
        # the reference reports every undeclared variable at position 0
        message = re.sub(r"^(undeclared variable '\w+') \(at position \d+\)$", r"\1", str(exc))
        return type(exc), message
    return f.vars, f.order, f._den, f._num


@settings(max_examples=300, deadline=None)
@given(_inputs())
def test_parse_series_matches_the_reference_parser(case):
    text, vars_, order, single = case
    got = _outcome(parse_series, text, vars_, order)
    want = _outcome(reference_parser.parse_series, text, vars_, order)
    if single or not isinstance(want[0], type):
        assert got == want
    else:  # two errors: each parser reports its first, of the same class
        assert got[0] is want[0]


def test_parsing_a_check_theta_multiplies_no_series(monkeypatch):
    rng = random.Random(5)
    texts = [check_theta(rng, refute) for refute in (False, True, True)]
    calls = []
    mul = TruncSeries.__mul__
    monkeypatch.setattr(TruncSeries, "__mul__", lambda f, g: calls.append(1) or mul(f, g))
    products = []
    product = series._product
    counted = lambda *a: products.append(1) or product(*a)  # noqa: E731
    monkeypatch.setattr(series, "_product", counted)
    monkeypatch.setattr(parsing, "_product", counted)
    convolutions = []
    convolve = series._convolve
    monkeypatch.setattr(series, "_convolve", lambda *a: convolutions.append(1) or convolve(*a))
    sizes = []
    bits = TruncSeries.bits
    monkeypatch.setattr(TruncSeries, "bits", lambda f: sizes.append(1) or bits(f))
    for text in texts:
        assert parse_series(text, VARS, 12) == reference_parser.parse_series(text, VARS, 12)
        # the reference multiplied once per number, ``i`` and variable
        assert len(calls) > 100
        calls.clear()
        products.clear()
        sizes.clear()
        convolutions.clear()
        parse_series(text, VARS, 12)
        assert calls == []
        # each product has a one-term side, a shift and a scale
        assert convolutions == []
        # a term of numbers, ``i`` and variable powers is one monomial: the
        # only products multiply a parenthesised coefficient by one, and the
        # only size checks are of sums; it was about 178 and 252 per Theta
        groups = text.count("(")
        assert 0 < len(products) <= 2 * groups
        assert len(sizes) <= 2 * groups + 1
