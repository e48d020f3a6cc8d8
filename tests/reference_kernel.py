"""The tuple-keyed convolution that ``crsphere.series`` used before its
packed-key kernel; the reference for the kernel's tests.

``_convolve`` and ``_nonzero`` are kept as they were.  ``reference_product``,
``reference_mul``, ``reference_div`` and ``reference_substitute`` are the
former bodies of the parser's multi-term product, ``TruncSeries.__mul__``,
``TruncSeries.div`` and ``TruncSeries.substitute`` written over them.
``reference_dot`` is ``TruncSeries.dot`` as the sum, term by term in
``reference_sum``, of separately truncated and multiplied parts.
``reference_moved`` is the remap behind ``reorder`` and ``extend`` as it
was when each key was decoded into its exponents and encoded again;
``reference_substitute`` groups the terms by decoded exponents the same way.
They read and write the series through two adapters, ``_tuples`` and
``_reduced``, which translate between exponent tuples and the series'
int keys with code of their own, so the reference shares no key code
with the kernel it checks.
"""

from __future__ import annotations

from itertools import groupby
from math import lcm
from operator import add, itemgetter
from typing import Mapping, Optional

from crsphere.errors import ArityError, CompositionError, NonUnitError
from crsphere.series import TruncSeries


# a series key is one int: the monomial's degree, then its exponents, as
# digits base 128
_BASE = 128


def _tuples(f: TruncSeries) -> dict:
    """Read adapter: the numerators of ``f`` keyed by exponent tuples."""
    num = {}
    for key, pair in f._num.items():
        digits = []
        for _ in range(f.arity):
            key, e = divmod(key, _BASE)
            digits.append(e)
        assert key == sum(digits)  # what is left is the degree digit
        num[tuple(reversed(digits))] = pair
    return num


def _reduced(vars: tuple, order: int, den: int, num: dict) -> TruncSeries:
    """Write adapter: ``TruncSeries._reduced`` of tuple-keyed numerators."""
    keyed = {}
    for mono, pair in num.items():
        key = sum(mono)
        for e in mono:
            key = key * _BASE + e
        keyed[key] = pair
    return TruncSeries._reduced(vars, order, den, keyed)


def _convolve(left: dict, right: dict, order: int, acc: Optional[dict] = None) -> dict:
    """Gaussian-integer product of two numerator maps below ``order``.

    Returns ``{mono: [re, im]}``, zeros included; no gcd is taken inside
    the loop.  With ``acc`` the product is added into that accumulator,
    which is returned.
    """
    if acc is None:
        acc = {}
    rows = [(m, sum(m), re, im) for m, (re, im) in right.items()]
    for m1, (r1, i1) in left.items():
        d1 = sum(m1)
        for m2, d2, r2, i2 in rows:
            if d1 + d2 >= order:
                continue
            mono = tuple(map(add, m1, m2))
            slot = acc.get(mono)
            if slot is None:
                acc[mono] = [r1 * r2 - i1 * i2, r1 * i2 + i1 * r2]
            else:
                slot[0] += r1 * r2 - i1 * i2
                slot[1] += r1 * i2 + i1 * r2
    return acc


def _nonzero(acc: dict) -> dict:
    """The nonzero accumulated terms of ``_convolve`` as ``(re, im)`` pairs."""
    return {mono: (re, im) for mono, (re, im) in acc.items() if re or im}


def reference_product(f: TruncSeries, g: TruncSeries, order: int) -> TruncSeries:
    """``f * g`` below ``order``, over the product of their denominators."""
    num = _nonzero(_convolve(_tuples(f), _tuples(g), order))
    return _reduced(f.vars, order, f._den * g._den, num)


def reference_mul(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    f._check_space(g)
    order = min(f.order + g.valuation(), g.order + f.valuation(), f.order + g.order)
    return reference_product(f, g, order)


def reference_sum(terms: list) -> TruncSeries:
    """``sum(k * f)`` over ``(f, k)`` pairs of one space, to the least known
    order, over the lcm of the denominators."""
    first = terms[0][0]
    order = min(f.order for f, _ in terms)
    den = lcm(*(f._den for f, _ in terms))
    acc: dict = {}
    for f, k in terms:
        f._check_space(first)
        s = k * (den // f._den)
        for mono, (re, im) in _tuples(f).items():
            if sum(mono) < order:
                old = acc.get(mono, (0, 0))
                acc[mono] = (old[0] + re * s, old[1] + im * s)
    return _reduced(first.vars, order, den, {m: pair for m, pair in acc.items() if pair != (0, 0)})


def reference_dot(parts: list, cap: int) -> TruncSeries:
    """``sum(k * f.truncate(cap) * g.truncate(cap))``, one product per part."""
    return reference_sum([(reference_mul(f.truncate(cap), g.truncate(cap)), k) for f, g, k in parts])


def reference_moved(f: TruncSeries, new_vars: tuple) -> TruncSeries:
    """``f`` over ``new_vars``, each exponent moved to its variable's slot."""
    pos = [new_vars.index(v) for v in f.vars]
    num = {}
    for mono, pair in _tuples(f).items():
        out = [0] * len(new_vars)
        for j, e in zip(pos, mono):
            out[j] = e
        num[tuple(out)] = pair
    return _reduced(new_vars, f.order, f._den, num)


def reference_substitute(f: TruncSeries, images: Mapping[str, TruncSeries]) -> TruncSeries:
    spaces = {im.vars for im in images.values()}
    if len(spaces) > 1:
        raise ArityError(f"substitution images live in different spaces: {spaces}")
    target = spaces.pop() if spaces else f.vars
    order = f.order
    for name, im in images.items():
        if name not in f.vars:
            raise ArityError(f"image given for {name!r}, not a variable of {f.vars}")
        if (0,) * im.arity in _tuples(im):
            raise CompositionError(f"image for {name!r} has a nonzero constant term")
        order = min(order, im.order)
    subbed = []  # (source slot, denominator, image numerators below the order)
    shift = []  # (source slot, target slot) of each pass-through variable
    for i, v in enumerate(f.vars):
        if v in images:
            im = images[v]
            below = {m: pair for m, pair in _tuples(im).items() if sum(m) < order}
            subbed.append((i, im._den, below))
        else:
            if v not in target:
                raise ArityError(f"variable {v!r} absent from target space {target}")
            shift.append((i, target.index(v)))
    groups: dict = {}
    for mono, pair in _tuples(f).items():
        if sum(mono) >= order:
            continue
        out = [0] * len(target)
        for i, j in shift:
            out[j] = mono[i]
        key = tuple(mono[i] for i, _, _ in subbed)
        groups.setdefault(key, {})[tuple(out)] = pair
    common = f._den
    for k, (_, den, _) in enumerate(subbed):
        common *= den ** max((key[k] for key in groups), default=0)
    acc: dict = {}

    def expand(keys: list, level: int, product: dict, den: int) -> None:
        if level == len(subbed):
            part = groups[keys[0]]
            scale = common // den
            if scale != 1:
                part = {m: (re * scale, im * scale) for m, (re, im) in part.items()}
            _convolve(part, product, order, acc)
            return
        _, image_den, image = subbed[level]
        power = 0
        for e, sub in groupby(keys, itemgetter(level)):
            while power < e:
                product = _nonzero(_convolve(product, image, order))
                den *= image_den
                power += 1
            expand(list(sub), level + 1, product, den)

    if groups:
        expand(sorted(groups), 0, {(0,) * len(target): (1, 0)}, f._den)
    del expand
    return _reduced(target, order, common, _nonzero(acc))


def reference_div(f: TruncSeries, g: TruncSeries) -> TruncSeries:
    f._check_space(g)
    origin = (0,) * f.arity
    g_num = _tuples(g)
    if origin not in g_num:
        raise NonUnitError("divisor has zero constant term")
    order = min(f.order, g.order)
    cr, ci = g_num[origin]
    norm = cr * cr + ci * ci
    gplus = {m: pair for m, pair in g_num.items() if m != origin}
    powers = [norm**k for k in range(order + 1)]
    rest = [{} for _ in range(order)]
    for mono, (re, im) in _tuples(f).items():
        d = sum(mono)
        if d < order:
            rest[d][mono] = (re * powers[d], im * powers[d])
    quotient = []  # (d, N^(d+1) q_d)
    for d in range(order):
        q = {
            mono: (re * cr + im * ci, im * cr - re * ci)
            for mono, (re, im) in rest[d].items()
            if re or im
        }
        if not q:
            continue
        quotient.append((d, q))
        for mono, (re, im) in _convolve(q, gplus, order).items():
            e = sum(mono)
            s = powers[e - d - 1]
            part = rest[e]
            old = part.get(mono, (0, 0))
            part[mono] = (old[0] - re * s, old[1] - im * s)
    if not quotient:
        return TruncSeries._make(f.vars, order, 1, {})
    top = quotient[-1][0]
    num = {}
    for d, q in quotient:
        s = powers[top - d] * g._den
        for mono, (re, im) in q.items():
            num[mono] = (re * s, im * s)
    return _reduced(f.vars, order, f._den * powers[top + 1], num)
