"""Machine-readable verdict reports.

The JSON schema is normative and deterministic: keys are emitted in the
fixed order ``verdict, tested_order, witness_monomial,
witness_coefficient, delta_at_origin, timings`` and equal reports render
to byte-identical text.  Commands that produce a series alongside the
verdict append extra payload keys after the fixed six.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

from .rational import GaussRat

VERDICT_SPHERICAL = "spherical-to-order"
VERDICT_NON_SPHERICAL = "non-spherical"
VERDICT_LEVI_DEGENERATE = "levi-degenerate"
VERDICT_REALITY_VIOLATED = "reality-violated"
VERDICT_ERROR = "error"
# Success verdict for subcommands that check or transform without deciding
# sphericality (verify-reality pass, to-complex, derive-ode, dual, self-test).
VERDICT_OK = "ok"

_WITNESS_REQUIRED = (VERDICT_NON_SPHERICAL, VERDICT_REALITY_VIOLATED)


class Report:
    """One command's outcome: the six fixed keys, then ``payload``'s."""

    __slots__ = ("verdict", "tested_order", "witness_monomial", "witness_coefficient",
                 "delta_at_origin", "timings", "payload")

    def __init__(self, verdict: str, tested_order: int, witness_monomial: tuple | None = None,
                 witness_coefficient: GaussRat | None = None,
                 delta_at_origin: GaussRat | None = None, timings: dict | None = None,
                 payload: dict | None = None):
        if verdict in _WITNESS_REQUIRED:
            if witness_monomial is None or witness_coefficient is None:
                raise ValueError(f"verdict {verdict!r} requires a witness")
            if witness_coefficient.is_zero():
                raise ValueError("witness coefficient must be nonzero")
        self.verdict, self.tested_order = verdict, tested_order
        self.witness_monomial, self.witness_coefficient = witness_monomial, witness_coefficient
        self.delta_at_origin = delta_at_origin
        self.timings = {} if timings is None else timings
        self.payload = {} if payload is None else payload


class StageClock:
    """Wall time of named stages in integer microseconds, kept only when enabled.

    ``clock(stage, fn)`` runs ``fn()`` and returns its result; ``timings``
    is the ``Report.timings`` map it fills, summing the calls of a stage.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.timings: dict = {}

    def __call__(self, stage: str, fn):
        start = perf_counter_ns()
        result = fn()
        if self.enabled:
            elapsed = (perf_counter_ns() - start) // 1000
            self.timings[stage] = self.timings.get(stage, 0) + elapsed
        return result


def render_report(report: Report, pretty: bool = False) -> str:
    doc = {
        "verdict": report.verdict,
        "tested_order": report.tested_order,
        "witness_monomial": (
            list(report.witness_monomial) if report.witness_monomial is not None else None
        ),
        "witness_coefficient": (
            report.witness_coefficient.as_pq_strings()
            if report.witness_coefficient is not None
            else None
        ),
        "delta_at_origin": (
            report.delta_at_origin.as_pq_strings()
            if report.delta_at_origin is not None
            else None
        ),
        "timings": dict(sorted(report.timings.items())),
    }
    doc.update(report.payload)
    if pretty:
        return json.dumps(doc, indent=2)
    return json.dumps(doc, separators=(",", ":"))
