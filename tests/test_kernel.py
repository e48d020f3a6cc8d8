"""The graded-key convolution kernel against the tuple-keyed reference.

``tests/reference_kernel.py`` keeps the kernel that ``series`` used before
its monomials were packed into graded keys.  Products, sums of products,
divisions, substitutions and parsed products must equal its results, known
order included, and stay normalised, on spaces of arity 0 to 5 and orders
0 to 20; the remaps of the variable space must equal its decoding ones on
spaces of 2 to 5 variables, up to the order ceiling.  The key format
itself and the order ceiling it sets are tested last.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crsphere.errors import ArityError
from crsphere.parsing import parse_series, render_series
from crsphere.rational import GaussRat, ONE
from crsphere.series import MAX_ORDER, TruncSeries, _key, _mono

from conftest import VARS3, _assert_normalised, kernel_rats
from reference_kernel import (
    reference_div, reference_dot, reference_moved, reference_mul, reference_product,
    reference_substitute,
)

# arity 0 to 5; the last is the space ``solve_parameters`` works in
SPACES = ((), ("z",), ("z", "w"), VARS3, ("z", "zb", "w", "wb"), ("x", "y", "yx", "a", "b"))


def _same(got, want):
    assert got == want  # vars, known order, denominator and numerators
    _assert_normalised(got)


@st.composite
def monos(draw, arity, top_degree, low=0):
    """A monomial of degree ``low..top_degree`` split over ``arity`` slots."""
    if not arity:
        return ()
    d = draw(st.integers(low, max(low, top_degree)))
    cuts = sorted(draw(st.lists(st.integers(0, d), min_size=arity - 1, max_size=arity - 1)))
    bounds = [0, *cuts, d]
    return tuple(b - a for a, b in zip(bounds, bounds[1:]))


@st.composite
def series_in(draw, vars, order=None, low=0, max_terms=8):
    """A series over ``vars`` known to ``order`` (drawn from 0..20 when not
    given), with terms of valuation ``low`` up to two degrees past it."""
    if order is None:
        order = draw(st.integers(0, 20))
    terms = {}
    if vars or not low:
        terms = draw(st.dictionaries(monos(len(vars), order + 2, low), kernel_rats, max_size=max_terms))
    return TruncSeries(vars, terms, order)


@st.composite
def pairs(draw):
    vars = draw(st.sampled_from(SPACES))
    return draw(series_in(vars)), draw(series_in(vars))


def _edge(vars, order, slot):
    """``2 + v^(order - 1)`` for the variable ``v`` in ``slot``: its exponent
    is the largest digit a key below ``order`` holds."""
    mono = tuple(order - 1 if i == slot else 0 for i in range(len(vars)))
    return TruncSeries(vars, {mono: ONE, (0,) * len(vars): GaussRat.of(2)}, order)


_XYAB = SPACES[-1]


@settings(max_examples=300, deadline=None)
@given(pairs())
@example((TruncSeries.zero(VARS3, 9), _edge(VARS3, 9, 0)))
@example((_edge(VARS3, 9, 2), TruncSeries.zero(VARS3, 0)))
@example((TruncSeries.one((), 3), TruncSeries.constant(GaussRat.of(5), (), 20)))
# f is known to 20, the product only to 3: f's terms from degree 3 on drop out
@example((parse_series("1 + x^7*b + yx^19", _XYAB, 20), parse_series("2 - a + x*y", _XYAB, 3)))
def test_mul_matches_reference_kernel(pair):
    f, g = pair
    _same(f * g, reference_mul(f, g))


@st.composite
def unequal_pairs(draw):
    """``(f, g)`` of one space, ``g`` with at least two more stored terms."""
    vars = draw(st.sampled_from(SPACES[1:]))
    f = draw(series_in(vars, max_terms=4))
    g = draw(series_in(vars, max_terms=16).filter(lambda g: len(g._num) >= len(f._num) + 2))
    return f, g


@settings(max_examples=200, deadline=None)
@given(unequal_pairs())
@example((parse_series("1 + z - w^2", ("z", "w"), 9), parse_series("(2 - z + 1/3*w)^6", ("z", "w"), 7)))
def test_products_of_unequal_length_commute(pair):
    # the convolution loops over the shorter side, in either argument order
    f, g = pair
    fg, gf = f * g, g * f
    assert (fg.vars, fg.order, fg._den, fg._num) == (gf.vars, gf.order, gf._den, gf._num)
    _same(fg, reference_mul(f, g))
    _same(gf, reference_mul(g, f))


@st.composite
def one_term_pairs(draw):
    """``(f, g)`` with a side of exactly one stored term, on the left or the
    right; the other side may be one term too, zero or known to order 0."""
    vars = draw(st.sampled_from(SPACES))
    order = draw(st.integers(1, 20))
    mono = draw(monos(len(vars), order - 1))
    one = TruncSeries(vars, {mono: draw(kernel_rats.filter(lambda c: not c.is_zero()))}, order)
    other = draw(st.one_of(series_in(vars), series_in(vars, max_terms=1)))
    return (one, other) if draw(st.booleans()) else (other, one)


def _one_term(vars, mono, order, c=ONE):
    return TruncSeries(vars, {mono: c}, order)


@settings(max_examples=300, deadline=None)
@given(one_term_pairs())
# the term sits at the top exponent digit: only the partner's constant stays
@example((_one_term(VARS3, (0, 0, 8), 9, GaussRat.of("3/4", "-1/6")), _edge(VARS3, 9, 0)))
@example((_edge(VARS3, 9, 1), _one_term(VARS3, (0, 0, 8), 9, GaussRat.of(0, "2/7"))))
# the term's degree reaches the product order: Kg + val f = 3
@example((_one_term(VARS3, (1, 2, 0), 5), TruncSeries.zero(VARS3, 0)))
@example((TruncSeries.zero(VARS3, 0), _one_term(VARS3, (1, 2, 0), 5, GaussRat.of("5/3"))))
# both sides one term, and a zero partner
@example((_one_term(_XYAB, (1, 0, 2, 0, 0), 6, GaussRat.of("1/2", "1/3")),
          _one_term(_XYAB, (0, 0, 0, 3, 1), 9, GaussRat.of(0, "-5/9"))))
@example((_one_term(("z",), (4,), 7, GaussRat.of("2/3")), TruncSeries.zero(("z",), 7)))
# arity 0: a constant times a constant, or times a zero known to order 0
@example((_one_term((), (), 4, GaussRat.of("3/2", 1)), _one_term((), (), 2, GaussRat.of(0, "1/3"))))
@example((TruncSeries.zero((), 0), _one_term((), (), 20, GaussRat.of("7/5"))))
def test_one_term_products_match_reference_kernel(pair):
    f, g = pair
    assert 1 in (len(f._num), len(g._num))
    _same(f * g, reference_mul(f, g))


@st.composite
def dots(draw):
    """``(parts, cap)``: one to four ``(f, g, k)`` parts over one space of
    arity 1 to 4, operands of any length (one term and zero included) and
    denominator, ``k`` in ±1..±5, and ``cap`` 0 to 25 or ``MAX_ORDER``."""
    vars = draw(st.sampled_from(SPACES[1:5]))
    operand = st.one_of(
        series_in(vars),
        series_in(vars, max_terms=1),
        st.builds(TruncSeries.zero, st.just(vars), st.integers(0, 20)),
    )
    factor = st.integers(1, 5).flatmap(lambda n: st.sampled_from((n, -n)))
    n = draw(st.integers(1, 4))
    parts = [(draw(operand), draw(operand), draw(factor)) for _ in range(n)]
    return parts, draw(st.one_of(st.integers(0, 25), st.just(MAX_ORDER)))


_ZWB = ("z", "w")


@settings(max_examples=300, deadline=None)
@given(dots())
# the two parts cancel: the sum is zero, known to the order of the products
@example(([(parse_series("1/3 + z", _ZWB, 6), parse_series("w - 2/7*z*w", _ZWB, 9), 2),
           (parse_series("w - 2/7*z*w", _ZWB, 9), parse_series("1/3 + z", _ZWB, 6), -2)], MAX_ORDER))
# a one-term part beside a convolved one, over unequal denominators, cut to 4
@example(([(parse_series("3/5*z*w", _ZWB, 8), parse_series("1 - 1/9*w + z^3", _ZWB, 8), -5),
           (parse_series("1 + 1/2*z", _ZWB, 7), parse_series("w + 1/4*z^2 - 7*w^3", _ZWB, 5), 3)], 4))
# cap 0: every part is known to order 0
@example(([(_edge(VARS3, 9, 1), _edge(VARS3, 9, 2), 1)], 0))
def test_dot_matches_reference_kernel(case):
    parts, cap = case
    _same(TruncSeries.dot(parts, cap), reference_dot(parts, cap))


def test_dot_checks_spaces_and_cap():
    f = parse_series("1 + z", ("z",), 5)
    g = parse_series("1 + w", ("w",), 5)
    with pytest.raises(ArityError):
        TruncSeries.dot([(f, f, 1), (f, g, 1)])
    with pytest.raises(ValueError):
        TruncSeries.dot([(f, f, 1)], -1)
    # ``*`` is the one-part case
    assert TruncSeries.dot([(f, f, 1)]) == f * f


@settings(max_examples=200, deadline=None)
@given(pairs(), kernel_rats.filter(lambda c: not c.is_zero()))
@example((_edge(VARS3, 12, 1), TruncSeries.zero(VARS3, 12)), GaussRat.of(3))
@example((TruncSeries.one(_XYAB, 20), parse_series("a*b + yx^2", _XYAB, 6)), GaussRat.of(0, 1))
def test_div_matches_reference_kernel(pair, c):
    f, g = pair
    unit = TruncSeries(g.vars, {**g.terms, (0,) * g.arity: c}, max(g.order, 1))
    _same(f.div(unit), reference_div(f, unit))


@st.composite
def substitutions(draw):
    """``(f, images)``: some variables of ``f`` get images of valuation at
    least one over a target space that holds every other variable of ``f``,
    in any order, perhaps beside new ones."""
    source = draw(st.sampled_from(SPACES))
    f = draw(series_in(source))
    names = draw(st.lists(st.sampled_from(source), unique=True)) if source else []
    if not names:
        return f, {}
    passing = [v for v in source if v not in names]
    extra = draw(st.lists(st.sampled_from(("s", "t")), unique=True))
    target = tuple(draw(st.permutations(passing + extra)))
    return f, {v: draw(series_in(target, low=1, max_terms=3)) for v in names}


@settings(max_examples=300, deadline=None)
@given(substitutions())
@example((_edge(VARS3, 9, 0), {"z": parse_series("z + zb*wb", VARS3, 20)}))
# both parameters of the solve space, images known beyond f's order
@example((
    parse_series("x + a^3 - 1/3*b*a + y*yx^4", _XYAB, 8),
    {"a": parse_series("y - x*yx", ("x", "y", "yx"), 12), "b": parse_series("yx^2", ("x", "y", "yx"), 20)},
))
def test_substitute_matches_reference_kernel(case):
    f, images = case
    _same(f.substitute(images), reference_substitute(f, images))


# -- remaps of the variable space against the tuple-decoding reference -----------

_WIDE = SPACES[2:]  # 2 to 5 variables


@st.composite
def wide_series(draw, vars, low=(), top=None):
    """A series over ``vars`` known to 5, 12 or ``MAX_ORDER``, some of whose
    terms put one variable at the order's top exponent: 127, the largest
    digit a key holds, at ``MAX_ORDER``.  Exponents of the slots in ``low``
    stay below ``top`` when it is given."""
    order = draw(st.sampled_from((5, 12, MAX_ORDER)))
    slot = st.integers(0, len(vars) - 1)
    edges = st.builds(lambda i: tuple(order - 1 if j == i else 0 for j in range(len(vars))), slot)
    monos = st.one_of(edges, st.tuples(*(st.integers(0, 3) for _ in vars)))
    terms = draw(st.dictionaries(monos, kernel_rats, max_size=6))
    if top is not None:
        terms = {m: c for m, c in terms.items() if all(m[i] < top for i in low)}
    return TruncSeries(vars, terms, order)


@st.composite
def remaps(draw):
    """``(f, target)``: a series of 2 to 5 variables and a space holding them
    in any order, perhaps beside new ones."""
    vars = draw(st.sampled_from(_WIDE))
    extra = draw(st.lists(st.sampled_from(("s", "t")), unique=True))
    return draw(wide_series(vars)), tuple(draw(st.permutations(list(vars) + extra)))


@settings(max_examples=200, deadline=None)
@given(remaps())
@example((TruncSeries(_XYAB, {(0, 0, 0, 127, 0): ONE, (1, 2, 0, 0, 3): ONE}, MAX_ORDER),
          ("b", "s", "yx", "a", "y", "x")))
def test_reorder_and_extend_match_the_decoding_remap(case):
    f, target = case
    _same(f.extend(target), reference_moved(f, target))
    perm = tuple(v for v in target if v in f.vars)
    _same(f.reorder(perm), reference_moved(f, perm))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_WIDE).flatmap(lambda vars: st.tuples(wide_series(vars), st.permutations(vars))))
def test_relabelled_conjugate_reordered_matches_the_decoding_remap(case):
    # as ``theta_bar``: rename the slots by a permutation, then put them back
    f, names = case
    relabel = dict(zip(f.vars, names))
    conj = f.conjugate(relabel)
    _same(conj.reorder(f.vars), reference_moved(conj, f.vars))


@st.composite
def passing_substitutions(draw):
    """``(f, images)`` over 2 to 5 variables: some pass through, exponent 127
    included, into a target that may reuse a substituted name; the others
    keep small exponents and get images of degree 1 to 3."""
    source = draw(st.sampled_from(_WIDE))
    names = draw(st.lists(st.sampled_from(source), min_size=1, max_size=len(source) - 1, unique=True))
    subbed = [source.index(v) for v in names]
    f = draw(wide_series(source, low=subbed, top=4))
    passing = [v for v in source if v not in names]
    extra = draw(st.lists(st.sampled_from(names + ["s"]), unique=True))
    target = tuple(draw(st.permutations(passing + extra)))
    order = draw(st.sampled_from((f.order, MAX_ORDER)))
    terms = st.dictionaries(monos(len(target), 3, low=1), kernel_rats, max_size=3)
    return f, {v: TruncSeries(target, draw(terms), order) for v in names}


@settings(max_examples=200, deadline=None)
@given(passing_substitutions())
@example((
    TruncSeries(VARS3, {(127, 0, 0): ONE, (0, 120, 2): GaussRat.of(3), (1, 0, 3): ONE}, MAX_ORDER),
    {"wb": parse_series("zb + z*wb", VARS3, MAX_ORDER)},
))
def test_substitute_with_pass_through_matches_the_decoding_grouping(case):
    f, images = case
    _same(f.substitute(images), reference_substitute(f, images))


@st.composite
def products(draw):
    vars = draw(st.sampled_from(SPACES))
    order = draw(st.integers(0, 20))
    return vars, order, draw(st.lists(series_in(vars, order), min_size=2, max_size=3))


@settings(max_examples=200, deadline=None)
@given(products())
@example((VARS3, 8, [_edge(VARS3, 8, 2), parse_series("1 + z + zb + wb", VARS3, 8)]))
def test_parsed_products_match_reference_kernel(case):
    vars, order, factors = case
    text = "*".join(f"({render_series(f)})" for f in factors)
    parsed = [parse_series(render_series(f), vars, order) for f in factors]
    want = parsed[0]
    for f in parsed[1:]:
        want = reference_product(want, f, order)
    _same(parse_series(text, vars, order), want)


@pytest.mark.parametrize("vars", SPACES[1:])
def test_top_exponent_times_a_unit(vars):
    # v^(order - 1) times a variable reaches degree order: a kernel that
    # formed that pair would carry the exponent into the next digit
    unit = TruncSeries.one(vars, 20) + TruncSeries.sum(TruncSeries.variable(v, vars, 20) for v in vars)
    for order in range(1, 21):
        short = unit.truncate(order)
        pair = TruncSeries.one(vars, order) + TruncSeries.variable(vars[-1], vars, order)
        for slot, v in enumerate(vars):
            edge = _edge(vars, order, slot)
            _same(edge * short, reference_mul(edge, short))
            _same(short * edge, reference_mul(short, edge))
            _same(edge.div(pair), reference_div(edge, pair))
            x = TruncSeries.variable(v, vars, order)
            image = {v: x + x * TruncSeries.variable(vars[-1], vars, order)}
            _same(edge.substitute(image), reference_substitute(edge, image))


def test_keys_sort_graded_lex_and_decoding_inverts_encoding():
    order = 8
    monos3 = [m for m in itertools.product(range(order), repeat=3) if sum(m) < order]
    keys = [_key(m) for m in monos3]
    assert [_mono(key, 3) for key in keys] == monos3
    # key order is graded-lex order
    assert [_mono(key, 3) for key in sorted(keys)] == sorted(monos3, key=lambda m: (sum(m), m))
    # at the ceiling every degree and exponent is still one digit
    edge = [(MAX_ORDER - 1, 0, 0), (0, 1, MAX_ORDER - 2), (0, 0, 0)]
    assert [_mono(_key(m), 3) for m in edge] == edge
    # terms at or above the order never get a key
    terms = {(order, 0, 0): ONE, (0, 1, order - 1): GaussRat.of(2), (0, 0, 0): GaussRat.of(3, 4)}
    assert TruncSeries(VARS3, terms, order)._num == {_key((0, 0, 0)): (3, 4)}


def test_coeff_is_zero_off_the_space_and_the_order():
    f = parse_series("1 + z + zb^7 + wb^2", VARS3, 8)
    assert f.coeff((0, 7, 0)) == GaussRat.of(1)
    for mono in [(0, 0), (0, 0, 0, 0), (-1, 1, 0), (1, -1, 2), (8, 0, 0), (0, 0, 9)]:
        assert f.coeff(mono).is_zero()


def test_the_order_ceiling_is_128():
    assert MAX_ORDER == 128
    with pytest.raises(ValueError, match="128"):
        TruncSeries.zero(("z",), MAX_ORDER + 1)
    z = TruncSeries.variable("z", ("z",), MAX_ORDER)
    # Kf + val g passes the ceiling at every squaring; the product stops there
    power = z.pow(64)
    assert power.order == MAX_ORDER and power.sorted_terms() == [((64,), ONE)]
    _assert_normalised(power)
    big = z.pow(100)
    assert big * big == TruncSeries.zero(("z",), MAX_ORDER)
