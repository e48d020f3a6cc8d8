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

The names below are exported lazily (PEP 562): ``import crsphere`` loads
no submodule, and the first use of a name imports the one module that
defines it, so a CLI process loads only what its command runs.
``Biholo``, ``transform_defining`` and ``rigid_invariant`` live with the
fixture corpus and the audit, which only ``self-test`` loads; the rest of
the paper audit is not exported here.
"""

_HOMES = {
    "defining": ("ComplexDefining", "RealGraph", "detect_rigid", "levi_delta",
                 "to_complex_defining", "verify_reality"),
    "errors": ("ArityError", "CompositionError", "CrsError", "DegenerateError", "ExprSyntaxError",
               "InternalCheckError", "NonUnitError", "NotSolvableError", "RealityError"),
    "fixtures": ("Biholo", "transform_defining"),
    "invariants": ("InvariantPair", "KoppischReport", "aj6", "koppisch_check", "rigid_verdict",
                   "sphericality_verdict", "tresse_invariants"),
    "parsing": ("parse_series", "render_series"),
    "rational": ("GaussRat",),
    "report": ("Report", "render_report"),
    "selftest": ("rigid_invariant",),
    "series": ("TruncSeries",),
    "solve": ("implicit_solve",),
    "transfer": ("SolutionManifold", "associated_ode", "dual_manifold", "solve_parameters"),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}

__all__ = [*_HOME, "__version__"]
__version__ = "0.1.0"


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(__import__(f"{__name__}.{module}", fromlist=[name]), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__():
    return sorted({*globals(), *_HOME})
