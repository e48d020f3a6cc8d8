"""Pinned fixture corpus and seeded random generators.

The corpus backs both the self-test command and the acceptance suite:
the Heisenberg sphere, three spherical images of it under origin-fixing
biholomorphisms, and two rigid non-spherical surfaces whose witnesses
were established by the triple-pipeline oracle and frozen here.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .defining import GRAPH_VARS, MAP_VARS, THETA_VARS, XI_VARS, Biholo, ComplexDefining
from .parsing import parse_series
from .rational import GaussRat
from .series import TruncSeries

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


def heisenberg(order: int = 10) -> ComplexDefining:
    return ComplexDefining.from_theta(parse_series(HEISENBERG, THETA_VARS, order))


def corpus_biholos(order: int = 10) -> list:
    maps = []
    for f_txt, g_txt in BIHOLO_EXPRS:
        maps.append(
            Biholo(parse_series(f_txt, MAP_VARS, order), parse_series(g_txt, MAP_VARS, order))
        )
    return maps


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


def random_solvable_q(rng: random.Random, order: int, max_degree: int = 3) -> TruncSeries:
    """A random graph ``Q = -b + x*a + (degree >= 2 terms)``; always solvable."""
    base = parse_series("-b + x*a", ("x", "a", "b"), order)
    extra = random_series(rng, ("x", "a", "b"), max_degree, order, keep=0.4, min_degree=2)
    xa = (1, 1, 0)
    if xa in extra.terms:
        extra = extra - TruncSeries(("x", "a", "b"), {xa: extra.terms[xa]}, order)
    x_lin = (1, 0, 0)
    if x_lin in extra.terms:
        extra = extra - TruncSeries(("x", "a", "b"), {x_lin: extra.terms[x_lin]}, order)
    return base + extra


def section5_pair(seed: int, order: int = 6):
    """A seeded ``(Q, T)`` pair for the expanded third-order regression:
    the deterministic cores plus random degree <= 3 noise."""
    rng = random.Random(seed)
    vars_ = ("x", "a", "b")
    q = parse_series(SECTION5_Q_CORE, vars_, order) + random_series(
        rng, vars_, 3, order, keep=0.3, min_degree=2
    )
    t = parse_series(SECTION5_T_CORE, vars_, order) + random_series(
        rng, vars_, 3, order, keep=0.3
    )
    return q, t


def random_real_graph(rng: random.Random, order: int, max_degree: int = 4) -> TruncSeries:
    """A random real polynomial ``phi(x, y, v)`` with ``phi`` and ``d phi``
    vanishing at the origin."""
    return random_series(
        rng, GRAPH_VARS, max_degree, order, keep=0.35, with_imag=False, min_degree=2
    )


def random_hermitian_xi(rng: random.Random, order: int, max_degree: int = 5) -> TruncSeries:
    """A random Hermitian-symmetric rigid part ``Xi = z*zb + ...`` with a
    unit Levi factor."""
    terms = {(1, 1): GaussRat.of(1)}
    for p in range(max_degree + 1):
        for q in range(p, max_degree + 1):
            if not (2 <= p + q <= max_degree) or (p, q) == (1, 1):
                continue
            if rng.random() >= 0.45:
                continue
            # diagonal coefficients must be real for Hermitian symmetry
            c = random_gauss(rng, with_imag=p != q)
            terms[(p, q)] = c
            terms[(q, p)] = c.conj()
    return TruncSeries(XI_VARS, terms, order)
