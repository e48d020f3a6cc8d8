"""Seeded random inputs that only the tests draw: solvable graphs ``Q``,
real graphing functions and Hermitian rigid parts."""

from __future__ import annotations

import random

from crsphere.defining import GRAPH_VARS, XI_VARS
from crsphere.fixtures import random_gauss, random_series
from crsphere.parsing import parse_series
from crsphere.rational import GaussRat
from crsphere.series import TruncSeries


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
