"""Command-line front end.

Subcommands: check, to-complex, verify-reality, derive-ode, invariants,
rigid-check, dual, self-test.  Input arrives inline (``--theta``,
``--xi``, ``--phi``) or from a plain-text file of ``key = value`` lines
(keys ``vars``, ``order``, ``theta``, ``xi``, ``phi``; values may be
double-quoted; ``#`` starts a comment).  Every command prints one JSON
report (see the report module for the schema) to stdout or ``--output``.

Exit codes: 0 for any clean verdict (including non-spherical), 1 for
input errors, 2 for internal cross-check failures.  Reports are
byte-identical across runs unless ``--timings`` is given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional

from .defining import (
    GRAPH_VARS,
    THETA_VARS,
    XI_VARS,
    ComplexDefining,
    RealGraph,
    levi_delta,
    to_complex_defining,
    verify_reality,
)
from .errors import CrsError, InternalCheckError
from .invariants import koppisch_check, rigid_invariant, sphericality_verdict
from .parsing import parse_series, render_series
from .report import (
    Report,
    StageClock,
    VERDICT_ERROR,
    VERDICT_LEVI_DEGENERATE,
    VERDICT_NON_SPHERICAL,
    VERDICT_OK,
    VERDICT_REALITY_VIOLATED,
    VERDICT_SPHERICAL,
    render_report,
)
from .selftest import run_self_test
from .transfer import associated_ode

DEFAULT_ORDER = 10
DEFAULT_ORDER_CAP = 16
# the sixth-order pipeline loses six derivative orders; anything below
# seven cannot report past degree zero
MIN_ORDER = {"check": 7, "invariants": 7, "rigid-check": 7}


@dataclass
class JobConfig:
    command: str
    theta: Optional[str] = None
    xi: Optional[str] = None
    phi: Optional[str] = None
    vars: tuple = THETA_VARS
    order: int = DEFAULT_ORDER
    timings: bool = False

    def __post_init__(self):
        raw = os.environ.get("CRS_MAX_ORDER", str(DEFAULT_ORDER_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"CRS_MAX_ORDER={raw!r} is not an integer") from None
        minimum = MIN_ORDER.get(self.command, 4)
        if self.order > cap:
            if cap < minimum:
                raise ValueError(
                    f"CRS_MAX_ORDER={raw!r} caps order {self.order} below the minimum"
                    f" {minimum} for {self.command!r}"
                )
            self.order = cap
        if self.order < minimum:
            raise ValueError(
                f"order {self.order} too small for {self.command!r} (minimum {minimum})"
            )


def _read_job_file(path: str) -> dict:
    values = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            value = value.strip()
            if len(value) >= 2 and value[0] == value[-1] == '"':
                value = value[1:-1]
            values[key.strip()] = value
    return values


def _parse_theta(cfg: JobConfig) -> ComplexDefining:
    if cfg.theta is None:
        raise ValueError(f"{cfg.command!r} needs a defining function (--theta)")
    theta = parse_series(cfg.theta, cfg.vars, cfg.order)
    return ComplexDefining.from_theta(theta)


def run_job(cfg: JobConfig) -> Report:
    command = cfg.command
    clock = StageClock(cfg.timings)
    timings = clock.timings

    if command == "check":
        d = clock("parse", lambda: _parse_theta(cfg))
        return sphericality_verdict(d, cfg.order, clock)

    if command == "verify-reality":
        d = clock("parse", lambda: _parse_theta(cfg))
        witness = clock("reality", lambda: verify_reality(d))
        if witness is None:
            return Report(VERDICT_OK, tested_order=d.theta.order, timings=timings)
        mono, coeff = witness
        return Report(
            VERDICT_REALITY_VIOLATED,
            tested_order=d.theta.order,
            witness_monomial=mono,
            witness_coefficient=coeff,
            timings=timings,
        )

    if command == "to-complex":
        if cfg.phi is None:
            raise ValueError("'to-complex' needs a real graphing function (--phi)")
        phi = clock("parse", lambda: parse_series(cfg.phi, GRAPH_VARS, cfg.order))
        d = clock("solve", lambda: to_complex_defining(RealGraph(phi), cfg.order))
        delta, _ = clock("levi", lambda: levi_delta(d))
        return Report(
            VERDICT_OK,
            tested_order=d.theta.order,
            delta_at_origin=delta.constant_term(),
            timings=timings,
            payload={"theta": clock("render", lambda: render_series(d.theta)), "rigid": d.rigid},
        )

    if command == "derive-ode":
        d = clock("parse", lambda: _parse_theta(cfg))
        delta, nondegenerate = clock("levi", lambda: levi_delta(d))
        if not nondegenerate:
            return Report(
                VERDICT_LEVI_DEGENERATE,
                tested_order=d.theta.order,
                delta_at_origin=delta.constant_term(),
                timings=timings,
            )
        ode = clock("eliminate", lambda: associated_ode(d.manifold, cfg.order))
        return Report(
            VERDICT_OK,
            tested_order=ode.f.order,
            delta_at_origin=delta.constant_term(),
            timings=timings,
            payload={
                "ode_rhs": clock("render", lambda: render_series(ode.f)),
                "ode_vars": list(ode.f.vars),
            },
        )

    if command == "invariants":
        d = clock("parse", lambda: _parse_theta(cfg))
        report = sphericality_verdict(d, cfg.order, clock)
        if report.verdict in (VERDICT_SPHERICAL, VERDICT_NON_SPHERICAL):
            # the verdict keeps the numerator delta^3 aj4 on ``d``; delta is a unit
            report.payload["aj4_vanishes"] = d.aj4_numerator.is_zero()
            report.payload["aj6_vanishes"] = report.verdict == VERDICT_SPHERICAL
        return report

    if command == "rigid-check":
        if cfg.xi is None:
            raise ValueError("'rigid-check' needs a rigid part (--xi)")
        xi = clock("parse", lambda: parse_series(cfg.xi, XI_VARS, cfg.order))
        defect = clock(
            "reality", lambda: xi - xi.conjugate({"z": "zb", "zb": "z"}).reorder(XI_VARS)
        )
        if not defect.is_zero():
            mono, coeff = defect.lowest_term()
            return Report(
                VERDICT_REALITY_VIOLATED,
                tested_order=xi.order,
                witness_monomial=mono,
                witness_coefficient=coeff,
                timings=timings,
            )
        levi = clock("levi", lambda: xi.derive("z").derive("zb").constant_term())
        if levi.is_zero():
            return Report(
                VERDICT_LEVI_DEGENERATE,
                tested_order=xi.order,
                delta_at_origin=levi,
                timings=timings,
            )
        inv = clock("invariant", lambda: rigid_invariant(xi))
        if inv.is_zero():
            return Report(
                VERDICT_SPHERICAL,
                tested_order=inv.order,
                delta_at_origin=levi,
                timings=timings,
            )
        mono, coeff = inv.lowest_term()
        return Report(
            VERDICT_NON_SPHERICAL,
            tested_order=inv.order,
            witness_monomial=mono,
            witness_coefficient=coeff,
            delta_at_origin=levi,
            timings=timings,
        )

    if command == "dual":
        d = clock("parse", lambda: _parse_theta(cfg))
        dual = clock("dual", lambda: d.manifold.dual(cfg.order))
        # for a surface satisfying the reality condition the dual graph is
        # the coefficient-conjugate with the conjugated slot leading
        conj = d.theta.conjugate({"z": "zb", "zb": "z", "wb": "wb"}).rename(
            {"zb": "x", "z": "a", "wb": "b"}
        )
        koppisch = clock("koppisch", lambda: koppisch_check(d.manifold, cfg.order))
        return Report(
            VERDICT_OK,
            tested_order=dual.q.order,
            timings=timings,
            payload={
                "dual": clock("render", lambda: render_series(dual.q)),
                "dual_vars": list(dual.q.vars),
                "conjugate_equal": (dual.q - conj).is_zero(),
                "koppisch": {
                    "i1_vanishes": koppisch.i1_vanishes,
                    "i2_vanishes": koppisch.i2_vanishes,
                    "dual_i1_vanishes": koppisch.dual_i1_vanishes,
                    "dual_i2_vanishes": koppisch.dual_i2_vanishes,
                    "order": koppisch.order,
                },
            },
        )

    if command == "self-test":
        passed = clock("corpus", run_self_test)
        return Report(
            VERDICT_OK,
            tested_order=cfg.order,
            timings=timings,
            payload={"checks": {name: "pass" for name in passed}},
        )

    raise ValueError(f"unknown command {cfg.command!r}")


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        print(text)
        return
    directory = os.path.dirname(os.path.abspath(output))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".crsphere-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        os.replace(tmp, output)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _Parser(argparse.ArgumentParser):
    # a usage problem is an input error: main turns it into one error
    # report with exit code 1
    def error(self, message):
        raise ValueError(message)


# (name, help, option carrying the command's input)
_COMMANDS = (
    ("check", "full sphericality verdict for a defining function", "--theta"),
    ("to-complex", "convert a real graph u = phi(x, y, v) to a complex defining equation", "--phi"),
    ("verify-reality", "check the reality condition of a defining function", "--theta"),
    ("derive-ode", "eliminate the parameters: the associated second-order ODE", "--theta"),
    ("invariants", "sphericality verdict plus invariant vanishing flags", "--theta"),
    ("rigid-check", "sphericality of a rigid surface from its part Xi(z, zb)", "--xi"),
    ("dual", "dual solution manifold and duality cross-checks", "--theta"),
    ("self-test", "run the pinned fixture corpus", None),
)
_INPUT_HELP = {
    "--theta": "defining function over (z, zb, wb)",
    "--xi": "rigid part over (z, zb)",
    "--phi": "real graphing function over (x, y, v)",
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and reused: parse_args keeps no state between
    # calls (defaults are None or False, each call gets a fresh namespace)
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--input", help="job file of 'key = value' lines")
    shared.add_argument("--vars", help="comma-separated variable names")
    shared.add_argument("--order", type=int, help=f"truncation order (default {DEFAULT_ORDER})")
    shared.add_argument("--output", help="write the report to this path (atomically)")
    shared.add_argument("--json", action="store_true", help="compact JSON output (default)")
    shared.add_argument("--pretty", action="store_true", help="indented JSON output")
    shared.add_argument(
        "--timings",
        action="store_true",
        help="include stage wall times in integer microseconds (breaks byte determinism)",
    )
    parser = _Parser(
        prog="crsphere",
        description="Exact sphericality checks for hypersurfaces w = Theta(z, zb, wb) in C^2",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, help_text, option in _COMMANDS:
        p = sub.add_parser(name, help=help_text, parents=[shared])
        if option is not None:
            p.add_argument(option, help=_INPUT_HELP[option])
    return parser


def _config_from_args(args) -> JobConfig:
    values = {}
    if args.input:
        values = _read_job_file(args.input)
    theta = getattr(args, "theta", None) or values.get("theta")
    xi = getattr(args, "xi", None) or values.get("xi")
    phi = getattr(args, "phi", None) or values.get("phi")
    if args.vars:
        vars_ = tuple(v.strip() for v in args.vars.split(","))
    elif "vars" in values:
        vars_ = tuple(v.strip() for v in values["vars"].split(","))
    else:
        vars_ = THETA_VARS
    if args.order is not None:
        order = args.order
    elif "order" in values:
        try:
            order = int(values["order"])
        except ValueError:
            raise ValueError(
                f"{args.input}: order = {values['order']!r} is not an integer"
            ) from None
    else:
        order = DEFAULT_ORDER
    return JobConfig(
        command=args.command,
        theta=theta,
        xi=xi,
        phi=phi,
        vars=vars_,
        order=order,
        timings=args.timings,
    )


def main(argv=None) -> int:
    pretty = False
    output = None
    try:
        args = _build_parser().parse_args(argv)
        pretty = args.pretty
        output = args.output
        report = run_job(_config_from_args(args))
        code = 0
    except InternalCheckError as exc:
        report = Report(VERDICT_ERROR, tested_order=0, payload={"message": str(exc)})
        code = 2
    except (CrsError, ValueError, OSError) as exc:
        report = Report(VERDICT_ERROR, tested_order=0, payload={"message": str(exc)})
        code = 1
    try:
        text = render_report(report, pretty=pretty)
    except ValueError as exc:  # a number too long for decimal text
        text = render_report(Report(VERDICT_ERROR, tested_order=0, payload={"message": str(exc)}),
                             pretty=pretty)
        code = 1
    _emit(text, output)
    return code


if __name__ == "__main__":
    sys.exit(main())
