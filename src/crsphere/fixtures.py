"""Pinned fixture corpus, the biholomorphic images it is built from, and
seeded random generators.

The corpus backs both the self-test command and the acceptance suite:
the Heisenberg sphere, three spherical images of it under origin-fixing
biholomorphisms (``Biholo``, pushed forward by ``transform_defining``),
and two rigid non-spherical surfaces whose witnesses were established by
the triple-pipeline oracle and frozen here.  No command but ``self-test``
loads this module.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .defining import MAP_VARS, THETA_VARS, ComplexDefining, verify_reality
from .errors import ArityError, InternalCheckError, NotSolvableError
from .parsing import parse_series
from .rational import GaussRat, frozen
from .series import TruncSeries
from .solve import implicit_solve
from .transfer import XAB

HEISENBERG = "-wb + z*zb"

# origin-fixing biholomorphisms with identity linear part
BIHOLO_EXPRS = (
    ("z", "w + w^2"),
    ("z + z^2", "w"),
    ("z + z*w", "w + w^2"),
)

# rigid non-spherical fixtures with their frozen lowest witnesses
# (established by agreement of the rigid formula, the cleared sixth-order
# series and the transferred ODE invariant; delta(0) = 1 for both, so the
# witness coefficient is shared verbatim across the three pipelines)
XI_NONSPHERICAL = (
    ("z*zb + z^4*zb^2 + z^2*zb^4", (0, 0), GaussRat.of(48)),
    ("z*zb + z^2*zb^2", (2, 0), GaussRat.of(960)),
)

SECTION5_SEEDS = (101, 202, 303)
REALITY_SEEDS = (1, 2, 3, 4, 5)
RIGID_SEEDS = (10, 20, 30, 40, 50)

# deterministic cores for the third-order regression: every second-jet
# entry of Q and every T-derivative up to third order is nonzero at the
# origin, so a flipped table coefficient shows up already in degree zero
SECTION5_Q_CORE = "a - b + x*a + a^2 - 2*a*b + b^2 + x*a^2 - x*a*b + x*b^2"
SECTION5_T_CORE = (
    "a + 2*b + a^2 - a*b + b^2 + x*a - x*b + a^3 + a^2*b - a*b^2 + 2*b^3"
)


class Biholo:
    """An origin-fixing biholomorphism ``(z, w) -> (f, g)`` of C^2."""

    __slots__ = ("f", "g")
    __setattr__ = __delattr__ = frozen

    def __init__(self, f: TruncSeries, g: TruncSeries):
        for s in (f, g):
            if s.vars != MAP_VARS:
                raise ArityError(f"map components must use variables {MAP_VARS}")
            if not s.constant_term().is_zero():
                raise ValueError("map must fix the origin")
        det = f.coeff((1, 0)) * g.coeff((0, 1)) - f.coeff((0, 1)) * g.coeff((1, 0))
        if det.is_zero():
            raise ValueError("map has a singular linear part at the origin")
        object.__setattr__(self, "f", f)
        object.__setattr__(self, "g", g)


def transform_defining(d: ComplexDefining, h: Biholo, order: int) -> ComplexDefining:
    """Push the defining equation forward through an origin-fixing biholomorphism.

    On the complexified graph the map acts as ``(f, g, f_bar, g_bar)``; the
    image is re-graphed by solving first the conjugate pair for the source
    conjugate coordinates, then the ``z``-component.  A singular solve means
    the image is not graphed over ``(z', zb', wb')`` and is reported as
    ``NotSolvableError``.
    """
    theta = d.theta.truncate(order)
    if theta.order < order:
        order = theta.order
    fb = h.f.conjugate({"z": "zt", "w": "wt"})
    gb = h.g.conjugate({"z": "zt", "w": "wt"})

    # stage 1: (zt, wt) from (zb', wb') = (f_bar, g_bar)(zt, wt)
    s1 = ("zbp", "wbp", "zt", "wt")
    eq1 = fb.extend(s1) - TruncSeries.variable("zbp", s1, order)
    eq2 = gb.extend(s1) - TruncSeries.variable("wbp", s1, order)
    inv = implicit_solve([eq1, eq2], ["zt", "wt"], order)

    # stage 2: compose Theta with the recovered conjugate coordinates
    mid = ("z", "zbp", "wbp")
    comp = theta.substitute({"zb": inv["zt"].extend(mid), "wb": inv["wt"].extend(mid)})

    # stage 3: z from z' = f(z, Theta(z, zt, wt))
    s3 = ("zp", "zbp", "wbp", "z")
    comp4 = comp.extend(s3)
    f_on_graph = h.f.substitute({"w": comp4})
    eq3 = f_on_graph - TruncSeries.variable("zp", s3, order)
    zsol = implicit_solve([eq3], ["z"], order)["z"]

    # stage 4: Theta' = g on the graph, composed with the solved z
    g_on_graph = h.g.substitute({"w": comp4})
    theta_new = (
        g_on_graph.substitute({"z": zsol})
        .rename({"zp": "z", "zbp": "zb", "wbp": "wb"})
        .reorder(THETA_VARS)
    )

    try:
        image = ComplexDefining.from_theta(theta_new)
    except ValueError as exc:
        raise NotSolvableError(f"image is not graphed in normalized form: {exc}") from exc
    witness = verify_reality(image)
    if witness is not None:
        raise InternalCheckError(f"holomorphic image violates the reality condition: {witness}")
    return image


def heisenberg(order: int = 10) -> ComplexDefining:
    return ComplexDefining.from_theta(parse_series(HEISENBERG, THETA_VARS, order))


def corpus_biholos(order: int = 10) -> list:
    return [Biholo(parse_series(f_txt, MAP_VARS, order), parse_series(g_txt, MAP_VARS, order))
            for f_txt, g_txt in BIHOLO_EXPRS]


def random_gauss(rng: random.Random, with_imag: bool = True) -> GaussRat:
    """A small nonzero Gaussian rational."""
    while True:
        re = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
        im = Fraction(rng.randint(-2, 2), rng.randint(1, 2)) if with_imag else Fraction(0)
        g = GaussRat.of(re, im)
        if not g.is_zero():
            return g


def random_series(
    rng: random.Random,
    vars,
    max_degree: int,
    order: int,
    keep: float = 0.6,
    with_imag: bool = True,
    min_degree: int = 1,
) -> TruncSeries:
    """A random polynomial with the given degree window, stored at ``order``."""
    terms = {}
    for mono in itertools.product(range(max_degree + 1), repeat=len(vars)):
        if min_degree <= sum(mono) <= max_degree and rng.random() < keep:
            terms[mono] = random_gauss(rng, with_imag)
    return TruncSeries(vars, terms, order)


def section5_pair(seed: int, order: int = 6):
    """A seeded ``(Q, T)`` pair for the expanded third-order regression:
    the deterministic cores plus random degree <= 3 noise."""
    rng = random.Random(seed)
    q = parse_series(SECTION5_Q_CORE, XAB, order) + random_series(
        rng, XAB, 3, order, keep=0.3, min_degree=2
    )
    t = parse_series(SECTION5_T_CORE, XAB, order) + random_series(rng, XAB, 3, order, keep=0.3)
    return q, t
