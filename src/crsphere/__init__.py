"""Exact sphericality checker for real analytic hypersurfaces in C^2.

The package decides, to a chosen truncation order, whether a Levi
nondegenerate hypersurface given by a complex defining equation
``w = Theta(z, zb, wb)`` is spherical, by testing the vanishing of an
explicit sixth-order polynomial differential expression in the jet of
``Theta`` -- together with the supporting calculus: exact truncated
series arithmetic over Gaussian rationals, real-to-complex conversion,
parameter elimination to a second-order ODE, Tresse invariants and
duality cross-checks.  A rigid surface ``w = -wb + Xi(z, zb)`` gets the
same verdict (``rigid_verdict``); the seven-term rigid formula
(``rigid_invariant``) is the route ``self-test`` and the tests compare.

The audit of the paper's jet-transfer formulas is not re-exported here:
it lives in ``crsphere.selftest``, which only ``self-test`` and the tests
import.
"""

from .defining import (
    Biholo,
    ComplexDefining,
    RealGraph,
    detect_rigid,
    levi_delta,
    to_complex_defining,
    transform_defining,
    verify_reality,
)
from .errors import (
    ArityError,
    CompositionError,
    CrsError,
    DegenerateError,
    ExprSyntaxError,
    InternalCheckError,
    NonUnitError,
    NotSolvableError,
    RealityError,
)
from .invariants import (
    InvariantPair,
    KoppischReport,
    aj4,
    aj6,
    koppisch_check,
    rigid_invariant,
    rigid_verdict,
    sphericality_verdict,
    tresse_invariants,
)
from .parsing import parse_series, render_series
from .rational import GaussRat
from .report import Report, render_report
from .series import TruncSeries
from .solve import implicit_solve
from .transfer import SolutionManifold, associated_ode, dual_manifold, solve_parameters

__version__ = "0.1.0"
