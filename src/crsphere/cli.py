"""Command-line front end.

Subcommands: check, to-complex, verify-reality, derive-ode, invariants,
rigid-check, dual, self-test, one row each of ``COMMANDS``.  Input
arrives inline (``--theta``, ``--xi``, ``--phi``) or from a plain-text
file of ``key = value`` lines (keys ``vars``, ``order``, ``theta``,
``xi``, ``phi``; values may be double-quoted; ``#`` starts a comment).
``vars`` or ``--vars``, if given, must name the variable space of the
command's input.  Every command prints one JSON report (see the report
module for the schema) to stdout or ``--output``.

Exit codes: 0 for any clean verdict (including non-spherical), 1 for
input errors, 2 for internal cross-check failures.  Reports are
byte-identical across runs unless ``--timings`` is given.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from collections import namedtuple

from .defining import (
    GRAPH_VARS,
    THETA_VARS,
    XI_VARS,
    ComplexDefining,
    RealGraph,
    detect_rigid,
    levi_delta,
    to_complex_defining,
)
from .errors import ArityError, CrsError, InternalCheckError
from .invariants import (
    aj4_numerator, koppisch_check, levi_stage, reality_stage, rigid_verdict, sphericality_verdict
)
from .parsing import parse_series, render_series
from .report import (
    Report,
    StageClock,
    VERDICT_ERROR,
    VERDICT_NON_SPHERICAL,
    VERDICT_OK,
    VERDICT_SPHERICAL,
    render_report,
)

DEFAULT_ORDER = 10
DEFAULT_ORDER_CAP = 16


class JobConfig:
    """One job: the command, the text of its one input, the working order
    (capped by ``CRS_MAX_ORDER``, at least the command's minimum) and
    ``--timings``."""

    __slots__ = ("command", "text", "order", "timings")

    def __init__(self, command: str, text: str | None = None, order: int = DEFAULT_ORDER,
                 timings: bool = False):
        if command not in COMMANDS:
            raise ValueError(f"unknown command {command!r}")
        raw = os.environ.get("CRS_MAX_ORDER", str(DEFAULT_ORDER_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise ValueError(f"CRS_MAX_ORDER={raw!r} is not an integer") from None
        minimum = COMMANDS[command].min_order
        if order > cap:
            if cap < minimum:
                raise ValueError(
                    f"CRS_MAX_ORDER={raw!r} caps order {order} below the minimum"
                    f" {minimum} for {command!r}"
                )
            order = cap
        if order < minimum:
            raise ValueError(f"order {order} too small for {command!r} (minimum {minimum})")
        self.command, self.text, self.order, self.timings = command, text, order, timings


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
    return ComplexDefining.from_theta(parse_series(cfg.text, THETA_VARS, cfg.order))


# -- command handlers: (cfg, clock) -> Report; run_job attaches the timings --


def _check(cfg: JobConfig, clock: StageClock) -> Report:
    d = clock("parse", lambda: _parse_theta(cfg))
    return sphericality_verdict(d, clock)


def _verify_reality(cfg: JobConfig, clock: StageClock) -> Report:
    d = clock("parse", lambda: _parse_theta(cfg))
    return reality_stage(d, clock) or Report(VERDICT_OK, tested_order=d.theta.order)


def _to_complex(cfg: JobConfig, clock: StageClock) -> Report:
    phi = clock("parse", lambda: parse_series(cfg.text, GRAPH_VARS, cfg.order))
    d = clock("solve", lambda: to_complex_defining(RealGraph(phi), cfg.order))
    delta, _ = clock("levi", lambda: levi_delta(d))
    return Report(
        VERDICT_OK,
        tested_order=d.theta.order,
        delta_at_origin=delta.constant_term(),
        payload={
            "theta": clock("render", lambda: render_series(d.theta)),
            "rigid": detect_rigid(d.theta),
        },
    )


def _derive_ode(cfg: JobConfig, clock: StageClock) -> Report:
    d = clock("parse", lambda: _parse_theta(cfg))
    degenerate = levi_stage(d, clock)
    if degenerate is not None:
        return degenerate
    f = clock("eliminate", lambda: d.manifold.ode(cfg.order))
    return Report(
        VERDICT_OK,
        tested_order=f.order,
        delta_at_origin=d.manifold.delta().constant_term(),
        payload={"ode_rhs": clock("render", lambda: render_series(f)), "ode_vars": list(f.vars)},
    )


def _invariants(cfg: JobConfig, clock: StageClock) -> Report:
    d = clock("parse", lambda: _parse_theta(cfg))
    report = sphericality_verdict(d, clock)
    if report.verdict in (VERDICT_SPHERICAL, VERDICT_NON_SPHERICAL):
        # the verdict kept the numerator on ``d.manifold``
        report.payload["aj4_vanishes"] = aj4_numerator(d).is_zero()
        report.payload["aj6_vanishes"] = report.verdict == VERDICT_SPHERICAL
    return report


def _rigid_check(cfg: JobConfig, clock: StageClock) -> Report:
    xi = clock("parse", lambda: parse_series(cfg.text, XI_VARS, cfg.order))
    return rigid_verdict(xi, clock)


def _dual(cfg: JobConfig, clock: StageClock) -> Report:
    d = clock("parse", lambda: _parse_theta(cfg))
    degenerate = levi_stage(d, clock)
    if degenerate is not None:
        return degenerate
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
        payload={
            "dual": clock("render", lambda: render_series(dual.q)),
            "dual_vars": list(dual.q.vars),
            "conjugate_equal": (dual.q - conj).is_zero(),
            "koppisch": koppisch._asdict(),  # its fields, in their order
        },
    )


def _self_test(cfg: JobConfig, clock: StageClock) -> Report:
    from .selftest import run_self_test  # only this command loads the paper audit

    passed = clock("corpus", run_self_test)
    return Report(
        VERDICT_OK,
        tested_order=cfg.order,
        payload={"checks": {name: "pass" for name in passed}},
    )


# A row of the command table, keyed by the command name: its help, the key of its input
# in ``INPUTS`` (or None), its least order and its handler ``(cfg, clock) -> Report``.  The
# sixth-order pipeline loses six derivative orders; below seven it cannot report past degree 0.
Command = namedtuple("Command", "help option min_order handler")

# each input key: the option and job-file key ``--<key>`` / ``<key> =``, with its
# description and variable space
INPUTS = {
    "theta": ("defining function", THETA_VARS),
    "xi": ("rigid part", XI_VARS),
    "phi": ("real graphing function", GRAPH_VARS),
}


COMMANDS = {
    "check": Command("full sphericality verdict for a defining function", "theta", 7, _check),
    "to-complex": Command(
        "convert a real graph u = phi(x, y, v) to a complex defining equation",
        "phi", 4, _to_complex,
    ),
    "verify-reality": Command(
        "check the reality condition of a defining function", "theta", 4, _verify_reality
    ),
    "derive-ode": Command(
        "eliminate the parameters: the associated second-order ODE", "theta", 4, _derive_ode
    ),
    "invariants": Command(
        "sphericality verdict plus invariant vanishing flags", "theta", 7, _invariants
    ),
    "rigid-check": Command(
        "sphericality of a rigid surface from its part Xi(z, zb)", "xi", 7, _rigid_check
    ),
    "dual": Command("dual solution manifold and duality cross-checks", "theta", 4, _dual),
    "self-test": Command("run the pinned fixture corpus", None, 4, _self_test),
}


def run_job(cfg: JobConfig) -> Report:
    clock = StageClock(cfg.timings)
    report = COMMANDS[cfg.command].handler(cfg, clock)
    report.timings = clock.timings
    return report


def _emit(text: str, output: str | None) -> None:
    if output is None:
        print(text)
        return
    import tempfile  # only a report written to a file needs it
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


class _Formatter(argparse.HelpFormatter):
    # argparse's width with no ``shutil`` (nor its ``fnmatch``, ``zlib``, ``bz2``
    # and ``lzma``): ``COLUMNS`` if a positive int, else the terminal's, else 80
    def __init__(self, prog):
        try:
            columns = int(os.environ["COLUMNS"])
        except (KeyError, ValueError):
            columns = 0
        if columns <= 0:
            try:
                columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
            except (AttributeError, ValueError, OSError):
                columns = 0
        super().__init__(prog, width=(columns or 80) - 2)


class _Parser(argparse.ArgumentParser):
    # a usage problem is an input error: main turns it into one error
    # report with exit code 1
    def error(self, message):
        raise ValueError(message)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on first use and reused: parse_args keeps no state between
    # calls (defaults are None or False, each call gets a fresh namespace)
    shared = argparse.ArgumentParser(add_help=False, formatter_class=_Formatter)
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
        formatter_class=_Formatter,
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help, parents=[shared], formatter_class=_Formatter)
        if command.option is not None:
            what, space = INPUTS[command.option]
            p.add_argument(f"--{command.option}", help=f"{what} over ({', '.join(space)})")
    return parser


def _config_from_args(args) -> JobConfig:
    values = {}
    if args.input:
        values = _read_job_file(args.input)
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
    key = COMMANDS[args.command].option
    text = None if key is None else getattr(args, key) or values.get(key)
    cfg = JobConfig(args.command, text, order, args.timings)
    if key is not None:
        what, space = INPUTS[key]
        if text is None:
            raise ValueError(f"{args.command!r} needs a {what} (--{key})")
        names = args.vars or values.get("vars")
        if names is not None and tuple(v.strip() for v in names.split(",")) != space:
            raise ArityError(f"{what} must use variables {space}")
    return cfg


def _error(message: str) -> Report:
    return Report(VERDICT_ERROR, tested_order=0, payload={"message": message})


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
        report, code = _error(str(exc)), 2
    except (CrsError, ValueError, OSError) as exc:
        report, code = _error(str(exc)), 1
    try:
        text = render_report(report, pretty=pretty)
    except ValueError as exc:  # a number too long for decimal text
        text, code = render_report(_error(str(exc)), pretty=pretty), 1
    while True:
        try:
            _emit(text, output)
            return code
        except OSError as exc:
            if output is None:  # stdout is closed: devnull takes the exit flush (signal docs)
                os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
                return 1
            # the report cannot be written: say so on stdout
            text = render_report(_error(f"cannot write {output}: {exc.strerror}"), pretty=pretty)
            output, code = None, 1


if __name__ == "__main__":
    sys.exit(main())
