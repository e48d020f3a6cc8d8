"""crsphere benchmark: closed-loop CLI jobs with one client.

    python3 perfbench/run.py --workload check --seed 3 --seconds 50 --trace 0

Run from the repository root.  The program is imported from ``src/``
as it is in the checkout; nothing is installed.  Jobs of a workload are
drawn from ``--seed`` (see workloads.py) and run one after another, each
starting when the previous one has returned, for ``--seconds`` seconds
(the job running at the deadline is finished and counted).  In-process
jobs call ``crsphere.cli.main(argv)`` and capture stdout; ``self-test``
jobs each start a fresh interpreter, as a user does.  Every report is
checked (workloads.check_report, stored digests, and for ``to-complex``
a ``verify-reality`` run on the output after the timed loop).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs every
job twice, untraced and then traced (tracer.py), and prints the
per-layer metrics; per-layer times and counts are per traced job.
The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans of a traced run are
written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DIGESTS = HERE / "digests.json"

sys.path.insert(0, str(HERE))
import tracer as T  # noqa: E402
import workloads as W  # noqa: E402

SETUP_REPEATS = 9
CHILD_TIMEOUT_S = 170
TAIL_MIN_JOBS = 100

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, span name, field); field "calls", "self_s", "incl_s",
# "a" or "b" of tracer.summarize, divided by the traced job count
LAYER_TOTALS = (
    ("series.mul.calls", "count", "series.mul", "calls"),
    ("series.mul.self_s", "s", "series.mul", "self_s"),
    ("series.mul.pairs", "count", "series.mul", "a"),
    ("series.mul.terms_out", "count", "series.mul", "b"),
    ("series.div.calls", "count", "series.div", "calls"),
    ("series.div.self_s", "s", "series.div", "self_s"),
    ("series.substitute.calls", "count", "series.substitute", "calls"),
    ("series.substitute.incl_s", "s", "series.substitute", "incl_s"),
    ("series.add.self_s", "s", "series.add", "self_s"),
    ("series.derive.self_s", "s", "series.derive", "self_s"),
    ("solve.implicit_solve.calls", "count", "solve.implicit_solve", "calls"),
    ("solve.implicit_solve.incl_s", "s", "solve.implicit_solve", "incl_s"),
    ("defining.verify_reality.incl_s", "s", "defining.verify_reality", "incl_s"),
    ("defining.to_complex_defining.incl_s", "s", "defining.to_complex_defining", "incl_s"),
    ("defining.levi_delta.incl_s", "s", "defining.levi_delta", "incl_s"),
    ("defining.transform_defining.incl_s", "s", "defining.transform_defining", "incl_s"),
    ("transfer.second_jet_transfer.incl_s", "s", "transfer.second_jet_transfer", "incl_s"),
    ("transfer.apply_dyx.incl_s", "s", "transfer.apply_dyx", "incl_s"),
    ("transfer.solve_parameters.incl_s", "s", "transfer.solve_parameters", "incl_s"),
    ("transfer.dual_manifold.incl_s", "s", "transfer.dual_manifold", "incl_s"),
    ("transfer.third_jet_check.incl_s", "s", "transfer.third_jet_check", "incl_s"),
    ("invariants.sphericality_verdict.incl_s", "s", "invariants.sphericality_verdict", "incl_s"),
    ("invariants.aj6.incl_s", "s", "invariants.aj6", "incl_s"),
    ("invariants.aj4.incl_s", "s", "invariants.aj4", "incl_s"),
    ("invariants.rigid_invariant.incl_s", "s", "invariants.rigid_invariant", "incl_s"),
    ("invariants.koppisch_check.incl_s", "s", "invariants.koppisch_check", "incl_s"),
    ("parsing.parse_series.incl_s", "s", "parsing.parse_series", "incl_s"),
    ("parsing.parse_series.terms_out", "count", "parsing.parse_series", "a"),
    ("cli.main.incl_s", "s", "cli.main", "incl_s"),
    ("report.render_report.incl_s", "s", "report.render_report", "incl_s"),
)

PER_LAYER = tuple((name, unit) for name, unit, _, _ in LAYER_TOTALS) + (
    ("series.coeff_bits_max", "bits"),
    ("solve.implicit_solve.substitute_calls", "count"),
    ("invariants.aj4_direct_s", "s"),
    ("cli.check.spherical_s_p50", "s"),
    ("cli.check.nonspherical_s_p50", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.jobs", "count"),
)


@dataclass
class Run:
    """One execution of one job: argv in, exit code and stdout out."""

    index: int
    job: W.Job
    traced: bool
    seconds: float
    code: object  # exit status, or a description of a crash
    text: str
    failure: Optional[str] = None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("CRS_MAX_ORDER", None)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_in_process(argv) -> tuple:
    """``crsphere.cli.main(argv)`` with stdout captured: (seconds, code, text)."""
    from crsphere import cli

    buf = io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    except Exception as exc:  # noqa: BLE001 - a crash is a failed job, not a crashed benchmark
        code = f"{type(exc).__name__}: {exc}"
    return perf_counter() - start, code, buf.getvalue()


def run_in_child(argv, trace_out=None) -> tuple:
    """The same job in a fresh interpreter: (seconds, code, text)."""
    if trace_out is None:
        cmd = [sys.executable, "-m", "crsphere.cli", *argv]
    else:
        cmd = [sys.executable, str(HERE / "tracer.py"), str(trace_out), *argv]
    start = perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return perf_counter() - start, "timeout", ""
    return perf_counter() - start, proc.returncode, proc.stdout


def measure_setup() -> tuple:
    """Median wall time of a fresh interpreter finishing the set-up probe,
    after one untimed warm-up; and whether every probe reported correctly."""
    times = []
    ok = True
    for i in range(SETUP_REPEATS + 1):
        seconds, code, text = run_in_child(W.SETUP_ARGV)
        ok = ok and code == 0 and json.loads(text or "{}").get("verdict") == W.SPHERICAL
        if i:
            times.append(seconds)
    return statistics.median(times), ok


def dense_theta() -> str:
    _, code, text = run_in_process(W.dense_argv())
    if code != 0:
        raise RuntimeError(f"dense to-complex conversion failed: {code}")
    return json.loads(text)["theta"]


def run_loop(workload: str, seed: int, seconds: float, dense: str, traced: bool):
    """Closed loop, one client: job ``i + 1`` starts when job ``i`` returns.

    With ``traced`` each job runs untraced and then traced; returns the
    runs, the wall time of the loop and one tracer dump per traced job."""
    runs, dumps = [], []
    start = perf_counter()
    index = 0
    while index == 0 or perf_counter() - start < seconds:
        job = W.make_job(workload, seed, index, dense)
        runs.append(Run(index, job, False, *execute(workload, job)))
        if traced:
            if workload == "self-test":
                path = OUT / f"trace-{workload}-{seed}-{index}.json"
                result = run_in_child(job.argv, trace_out=path)
                if path.is_file():
                    dumps.append({"job": index, **json.loads(path.read_text(encoding="utf-8"))})
                    path.unlink()
            else:
                tracer = T.Tracer()
                tracer.install()
                try:
                    result = run_in_process(job.argv)
                finally:
                    tracer.uninstall()
                dumps.append({"job": index, **tracer.dump()})
            runs.append(Run(index, job, True, *result))
        index += 1
    return runs, perf_counter() - start, dumps


def execute(workload: str, job: W.Job) -> tuple:
    if workload == "self-test":
        return run_in_child(job.argv)
    return run_in_process(job.argv)


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def expected_digest(digests: dict, workload: str, seed: int, index: int):
    """Stored report digest for a job, or None where none is pinned.

    The dense job (index 0 of ``check`` and ``to-complex``) and the
    ``self-test`` corpus do not depend on the seed and are always checked;
    other jobs only for the pinned seed."""
    stored = digests["jobs"].get(workload, [])
    if workload == "self-test":
        return stored[0]
    if (index == 0 and workload in ("check", "to-complex")) or seed == digests["pinned_seed"]:
        return stored[index] if index < len(stored) else None
    return None


def check_runs(workload: str, seed: int, runs: list, digests: dict) -> None:
    """Set ``run.failure`` on every run whose report is wrong."""
    first_text = {}
    for run in runs:
        run.failure = W.check_report(run.job, run.code, run.text)
        if run.failure is None:
            want = expected_digest(digests, workload, seed, run.index)
            if want is not None and W.digest(run.text) != want:
                run.failure = "report digest differs from the pinned one"
        if run.failure is None and first_text.setdefault(run.index, run.text) != run.text:
            run.failure = "traced report differs from the untraced one"
    if workload == "to-complex":
        verified = {}
        for run in runs:
            if run.failure is not None:
                continue
            theta = json.loads(run.text)["theta"]
            if theta not in verified:
                _, code, text = run_in_process(
                    ("verify-reality", f"--theta={theta}", "--order", str(W.ORDERS[workload]))
                )
                verified[theta] = code == 0 and json.loads(text)["verdict"] == W.OK
            if not verified[theta]:
                run.failure = "to-complex output fails verify-reality"


def tail(values: list):
    """The highest whole percentile with at least ten values beyond it,
    as (percentile, value), or None below TAIL_MIN_JOBS values."""
    n = len(values)
    if n < TAIL_MIN_JOBS:
        return None
    ordered = sorted(values)
    pct = (100 * (n - 10)) // n
    return pct, ordered[min(n - 1, (pct * n) // 100)]


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "self-test" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(workload, runs, wall, setup_s) -> tuple:
    times = [r.seconds for r in runs]
    metrics = {
        "jobs_per_s": len(runs) / wall,
        "job_s_p50": statistics.median(times),
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(workload),
    }
    notes = [f"jobs {len(runs)} in {wall:.3f} s"]
    t = tail(times)
    if t is None:
        notes.append(f"job_s_tail not reported: {len(times)} jobs < {TAIL_MIN_JOBS}")
    else:
        notes.append(f"job_s_tail p{t[0]} = {t[1]:.6f} s (N = {len(times)})")
    return metrics, notes


def per_layer(workload, runs, dumps) -> tuple:
    summary = T.summarize(dumps)
    totals = summary["totals"]
    n = max(1, len(dumps))
    metrics = {}
    for name, _unit, span, field in LAYER_TOTALS:
        metrics[name] = totals.get(span, {}).get(field, 0) / n
    untraced = [r for r in runs if not r.traced]
    traced = [r for r in runs if r.traced]
    aj4 = totals.get("invariants.aj4", {}).get("incl_s", 0.0)
    metrics["series.coeff_bits_max"] = summary["bits_max"]
    metrics["solve.implicit_solve.substitute_calls"] = summary["implicit_substitute_calls"] / n
    metrics["invariants.aj4_direct_s"] = (aj4 - summary["aj4_transfer_s"]) / n
    for name, kind in (("cli.check.spherical_s_p50", "certify"), ("cli.check.nonspherical_s_p50", "refute")):
        times = [r.seconds for r in untraced if r.job.kind == kind]
        metrics[name] = statistics.median(times) if times else 0.0
    metrics["trace.overhead_frac"] = 1.0 - sum(r.seconds for r in untraced) / sum(r.seconds for r in traced)
    metrics["trace.jobs"] = len(traced)
    return metrics, [f"traced jobs {len(traced)}, spans {sum(len(d['spans']) for d in dumps)}"]


def write_spans(workload: str, seed: int, dumps: list) -> None:
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(dumps, fh, separators=(",", ":"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="crsphere benchmark")
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "crsphere" / "cli.py").is_file():
        print(f"crsphere benchmark: no program source at {SRC}", file=sys.stderr)
        return 2
    os.environ.pop("CRS_MAX_ORDER", None)
    sys.path.insert(0, str(SRC))
    import crsphere

    if Path(crsphere.__file__).resolve().parent != SRC / "crsphere":
        print(f"crsphere benchmark: imported {crsphere.__file__}, not {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    setup_s, setup_ok = measure_setup()
    dense = dense_theta() if args.workload == "check" else ""
    runs, wall, dumps = run_loop(args.workload, args.seed, args.seconds, dense, bool(args.trace))
    check_runs(args.workload, args.seed, runs, load_digests())

    if args.trace:
        write_spans(args.workload, args.seed, dumps)
        values, notes = per_layer(args.workload, runs, dumps)
        units = dict(PER_LAYER)
    else:
        values, notes = end_to_end(args.workload, runs, wall, setup_s)
        units = dict(END_TO_END)
    failed = [r for r in runs if r.failure is not None]
    notes.append(f"error_frac = {len(failed) / len(runs)} ({len(failed)} of {len(runs)} jobs)")
    for r in failed[:10]:
        print(f"job {r.index} ({r.job.kind}{', traced' if r.traced else ''}): {r.failure}", file=sys.stderr)
    for name, value in values.items():
        print(f"{name} = {value} {units[name]}")
    for note in notes:
        print(note)
    result = {
        "correct": not failed and setup_ok,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
