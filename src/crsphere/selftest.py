"""Pinned-corpus self test.

Runs the fixture corpus end to end with every cross-pipeline assertion:
any disagreement raises ``InternalCheckError`` (an implementation bug,
exit code 2 in the CLI), never a math verdict.
"""

from __future__ import annotations

from . import fixtures
from .defining import (
    THETA_VARS,
    XI_VARS,
    ComplexDefining,
    levi_delta,
    transform_defining,
    verify_reality,
)
from .errors import InternalCheckError
from .invariants import aj4, aj6, koppisch_check, rigid_invariant, tresse_invariants
from .parsing import parse_series
from .rational import GaussRat
from .series import TruncSeries
from .transfer import (
    DET_DERIVATIVE_IDENTITIES,
    REPEATED_COLUMN_SPECIES,
    SolutionManifold,
    associated_ode,
    third_jet_check,
    total_deriv_check,
)


def _fail(name: str, detail) -> None:
    raise InternalCheckError(f"self-test {name!r} failed: {detail}")


def transferred_i1(theta: TruncSeries, order: int) -> TruncSeries:
    """The Tresse ``I1`` of the eliminated ODE, pulled back to the
    defining-function space via ``(x, y, yx) -> (z, Theta, Theta_z)``."""
    m = SolutionManifold(theta)
    inv = tresse_invariants(associated_ode(m, order))
    z = TruncSeries.variable("z", theta.vars, theta.order)
    return inv.i1.substitute({"x": z, "y": theta, "yx": theta.derive("z")})


def pipeline_equivalence(d: ComplexDefining, order: int):
    """Keystone identity: transferred ``I1`` equals ``aj6 / delta^7``.

    Returns ``None`` on exact agreement to the common order, else the
    lowest nonzero term of the difference.
    """
    theta = d.theta.truncate(order)
    work = ComplexDefining.from_theta(theta)
    lhs = transferred_i1(theta, order)
    rhs = aj6(work).div(work.manifold.delta().pow(7))
    return (lhs - rhs).lowest_term()


def _spherical_fixtures(order: int = 10) -> list:
    """Heisenberg and its three transformed images, freshly computed."""
    base = fixtures.heisenberg(order)
    out = [("heisenberg", base)]
    for i, h in enumerate(fixtures.corpus_biholos(order), start=1):
        out.append((f"transformed-{i}", transform_defining(base, h, order)))
    return out


def run_self_test() -> list:
    """Run every corpus check; returns the ordered list of names that passed."""
    passed = []

    def ok(name):
        passed.append(name)

    spherical = _spherical_fixtures(10)
    for name, d in spherical:
        if verify_reality(d) is not None:
            _fail(name, "reality condition violated")
        delta, nondeg = levi_delta(d)
        if not nondeg:
            _fail(name, "Levi degenerate")
        if not aj6(d).is_zero():
            _fail(name, "sixth-order obstruction does not vanish")
        ok(f"{name}-spherical")
    if not aj4(spherical[0][1]).is_zero():
        _fail("heisenberg", "fourth-order obstruction does not vanish")
    heis_delta, _ = levi_delta(spherical[0][1])
    if heis_delta.constant_term() != GaussRat.of(1):
        _fail("heisenberg", "Levi determinant is not 1")
    ok("heisenberg-delta-one")

    rigid = []
    for xi_txt, mono, coeff in fixtures.XI_NONSPHERICAL:
        xi = parse_series(xi_txt, XI_VARS, 12)
        inv = rigid_invariant(xi)
        low = inv.lowest_term()
        if low is None or low[0] != mono or low[1] != coeff:
            _fail(xi_txt, f"rigid witness {low} differs from pinned ({mono}, {coeff})")
        theta = parse_series(f"-wb + {xi_txt}", THETA_VARS, 12)
        d = ComplexDefining.from_theta(theta)
        sixth = aj6(d)
        low6 = sixth.lowest_term()
        if low6 is None or low6[0] != mono + (0,) or low6[1] != coeff:
            _fail(xi_txt, f"cleared sixth-order witness {low6} differs from pinned")
        rigid.append((xi_txt, d))
        ok(f"rigid-witness-{xi_txt}")

    for name, d in spherical + rigid:
        witness = pipeline_equivalence(d, 8)
        if witness is not None:
            _fail(name, f"pipeline equivalence defect {witness}")
        ok(f"{name}-pipeline-equivalence")
        koppisch_check(d.manifold, 8)
        ok(f"{name}-koppisch")

    for seed in fixtures.SECTION5_SEEDS:
        q, t = fixtures.section5_pair(seed, 6)
        m = SolutionManifold(q)
        witness = third_jet_check(m, t)
        if witness is not None:
            _fail(f"section5-seed-{seed}", f"expanded table defect {witness}")
        if total_deriv_check(m, t) is not None:
            _fail(f"section5-seed-{seed}", "total derivative transfer defect")
        for (u, v), var, (head, tail) in DET_DERIVATIVE_IDENTITIES:
            lhs = m.det(u, v).derive(m.q.vars["xab".index(var)])
            rhs = m.det(*tail) if head is None else m.det(*head) + m.det(*tail)
            if not (lhs - rhs).is_zero():
                _fail(f"section5-seed-{seed}", f"determinant derivative identity {(u, v)}/{var}")
        for u, v in REPEATED_COLUMN_SPECIES:
            if not m.det(u, v).is_zero():
                _fail(f"section5-seed-{seed}", f"repeated-column determinant {(u, v)} nonzero")
        ok(f"section5-seed-{seed}")

    return passed
