"""CLI contract: exit codes, deterministic JSON, file input, env cap."""

import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest

import crsphere.cli as cli
import crsphere.invariants as inv
import crsphere.transfer as tr
from crsphere.cli import main
from crsphere.rational import GaussRat
from crsphere.report import VERDICT_NON_SPHERICAL, Report
from crsphere.series import TruncSeries

from conftest import check_theta

FIXED_KEYS = [
    "verdict",
    "tested_order",
    "witness_monomial",
    "witness_coefficient",
    "delta_at_origin",
    "timings",
]


def run_cli(args, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "crsphere.cli", *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    return proc


def test_check_spherical_exit_zero(capsys):
    code = main(["check", "--theta", "-wb + z*zb", "--order", "10"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "spherical-to-order"
    assert out["tested_order"] >= 4
    assert list(out)[:6] == FIXED_KEYS


def test_rigid_check_non_spherical_exit_zero(capsys):
    code = main(["rigid-check", "--xi", "z*zb + z^4*zb^2 + z^2*zb^4", "--order", "12"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "non-spherical"
    assert out["witness_monomial"] == [0, 0]
    assert out["witness_coefficient"] == {"re": "48/1", "im": "0/1"}


def test_verify_reality_violation(capsys):
    code = main(["verify-reality", "--theta", "-wb + i*z*zb"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "reality-violated"
    assert out["witness_monomial"] == [1, 1, 0]


def test_verify_reality_pass(capsys):
    code = main(["verify-reality", "--theta", "-wb + z*zb + z^2*zb^2"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["verdict"] == "ok"


def test_parse_error_exit_one(capsys):
    code = main(["check", "--theta", "-wb + z*"])
    out = json.loads(capsys.readouterr().out)
    assert code == 1
    assert out["verdict"] == "error"
    assert "position" in out["message"]


def test_deep_nesting_is_one_error_report():
    proc = run_cli(["check", "--theta=" + "(" * 3000 + "z" + ")" * 3000, "--order", "7"])
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["verdict"] == "error"  # exactly one document
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--theta=-wb + z*zb + (z+zb+wb)^120", "--order", "16"],
        ["check", "--theta=-wb + z*zb + (z+zb+wb)^9999", "--order", "16"],
        ["to-complex", "--phi", "x^2 + y^2 + (x+y+v)^9999", "--order", "16"],
    ],
)
def test_high_powers_are_evaluated_at_the_working_order(argv):
    # the power has valuation far above the order, so it is zero at once
    proc = run_cli(argv, timeout=10)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] in ("spherical-to-order", "ok")  # one document
    assert "Traceback" not in proc.stderr


def test_oversized_coefficient_is_one_error_report():
    proc = run_cli(
        ["check", "--theta=-wb + z*zb + 123456789^9999*z^2*zb^2", "--order", "12"], timeout=10
    )
    assert proc.returncode == 1
    out = json.loads(proc.stdout)  # exactly one document
    assert out["verdict"] == "error"
    assert "bits" in out["message"]
    assert "Traceback" not in proc.stderr


def test_unrenderable_report_is_one_error_report(capsys, monkeypatch):
    # a coefficient past Python's int-to-str limit cannot be written as text
    huge = Report(VERDICT_NON_SPHERICAL, 6, (0, 0, 0), GaussRat.of(10**5000))
    monkeypatch.setattr(cli, "run_job", lambda cfg: huge)
    code = main(["check", "--theta", "-wb + z*zb"])
    out = json.loads(capsys.readouterr().out)  # exactly one document
    assert code == 1
    assert out["verdict"] == "error"


def test_order_too_small_exit_one(capsys):
    code = main(["check", "--theta", "-wb + z*zb", "--order", "5"])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "error"


def test_missing_file_exit_one(capsys):
    code = main(["check", "--input", "/nonexistent/job.txt"])
    assert code == 1
    capsys.readouterr()


def test_internal_check_failure_exit_two(capsys, monkeypatch):
    original = tr.THIRD_JET_TABLE
    flipped = ((original[0][0], -original[0][1]) + original[0][2:],) + original[1:]
    monkeypatch.setattr(tr, "THIRD_JET_TABLE", flipped)
    code = main(["self-test"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["verdict"] == "error"


def test_aj4_disagreement_exit_two(capsys, monkeypatch):
    direct = inv._aj4_direct
    monkeypatch.setattr(
        inv, "_aj4_direct", lambda theta: direct(theta) + TruncSeries.one(theta.vars, theta.order)
    )
    code = main(["check", "--theta", "-wb + z*zb", "--order", "8"])
    out = json.loads(capsys.readouterr().out)  # exactly one document
    assert code == 2
    assert out["verdict"] == "error"


def test_job_file_input(tmp_path, capsys):
    job = tmp_path / "job.txt"
    job.write_text(
        "# heisenberg fixture\n"
        'vars = z, zb, wb\n'
        'theta = "-wb + z*zb"\n'
        "order = 10\n"
    )
    code = main(["check", "--input", str(job)])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["verdict"] == "spherical-to-order"


def test_job_file_order_error_names_file_key_and_value(tmp_path):
    job = tmp_path / "job.txt"
    job.write_text('theta = "-wb + z*zb"\norder = abc\n')
    proc = run_cli(["check", "--input", str(job)], timeout=30)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)  # exactly one document
    assert out["verdict"] == "error"
    assert out["message"] == f"{job}: order = 'abc' is not an integer"
    assert proc.stderr == ""


def test_output_file_written_atomically(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(["check", "--theta", "-wb + z*zb", "--output", str(target)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["verdict"] == "spherical-to-order"
    assert not [p for p in os.listdir(tmp_path) if p.startswith(".crsphere-")]


def test_env_order_cap(capsys, monkeypatch):
    monkeypatch.setenv("CRS_MAX_ORDER", "8")
    code = main(["check", "--theta", "-wb + z*zb", "--order", "14"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["tested_order"] == 2  # capped at 8, minus six derivative orders


@pytest.mark.parametrize(
    "cap, message",
    [
        ("3", "CRS_MAX_ORDER='3' caps order 8 below the minimum 7 for 'check'"),
        ("abc", "CRS_MAX_ORDER='abc' is not an integer"),
    ],
)
def test_env_order_cap_errors_name_the_variable(cap, message):
    proc = subprocess.run(
        [sys.executable, "-m", "crsphere.cli", "check", "--theta=-wb+z*zb", "--order", "8"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "CRS_MAX_ORDER": cap},
    )
    assert proc.returncode == 1
    assert proc.stdout == (
        '{"verdict":"error","tested_order":0,"witness_monomial":null,'
        '"witness_coefficient":null,"delta_at_origin":null,"timings":{},'
        f'"message":"{message}"}}\n'
    )
    assert proc.stderr == ""


def test_order_past_the_series_ceiling_is_one_error_report():
    proc = subprocess.run(
        [sys.executable, "-m", "crsphere.cli", "check", "--theta=-wb+z*zb", "--order", "150"],
        capture_output=True,
        text=True,
        timeout=30,
        env={**os.environ, "CRS_MAX_ORDER": "200"},
    )
    assert proc.returncode == 1
    out = json.loads(proc.stdout)  # exactly one document
    assert out["verdict"] == "error"
    assert out["message"] == "known order 150 exceeds the largest supported order 128"
    assert proc.stderr == ""


def test_byte_identical_reports_across_runs():
    args = ["check", "--theta", "-wb + z*zb + z^2*zb^2", "--order", "9"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


# report bytes from before the integer-numerator kernel; they must not change
PINNED_REPORTS = {
    "check": (
        '{"verdict":"non-spherical","tested_order":3,"witness_monomial":[2,0,0],'
        '"witness_coefficient":{"re":"960/1","im":"0/1"},'
        '"delta_at_origin":{"re":"1/1","im":"0/1"},"timings":{}}'
    ),
    "invariants": (
        '{"verdict":"non-spherical","tested_order":3,"witness_monomial":[2,0,0],'
        '"witness_coefficient":{"re":"960/1","im":"0/1"},'
        '"delta_at_origin":{"re":"1/1","im":"0/1"},"timings":{},'
        '"aj4_vanishes":false,"aj6_vanishes":false}'
    ),
}


@pytest.mark.parametrize("command", sorted(PINNED_REPORTS))
def test_report_without_timings_is_pinned(command, capsys):
    code = main([command, "--theta", "-wb + z*zb + z^2*zb^2", "--order", "9"])
    assert code == 0
    assert capsys.readouterr().out.rstrip("\n") == PINNED_REPORTS[command]


@pytest.mark.parametrize(
    "argv, stages",
    [
        (["check", "--theta", "-wb + z*zb"], {"parse", "reality", "levi", "aj4", "aj6"}),
        (["invariants", "--theta", "-wb + z*zb"], {"parse", "reality", "levi", "aj4", "aj6"}),
        (["to-complex", "--phi", "x^2 + y^2"], {"parse", "solve", "levi", "render"}),
        # a nonzero right-hand side, so that rendering it takes a measurable time
        (["derive-ode", "--theta", "-wb + z*zb + z^2*zb^2"], {"parse", "levi", "eliminate", "render"}),
        (["dual", "--theta", "-wb + z*zb + z^2*zb^2"], {"parse", "dual", "koppisch", "render"}),
        (["rigid-check", "--xi", "z*zb + z^2*zb^2"], {"parse", "reality", "levi", "invariant"}),
    ],
)
def test_timings_are_integer_microseconds(argv, stages, capsys):
    code = main([*argv, "--order", "8", "--timings"])
    timings = json.loads(capsys.readouterr().out)["timings"]
    assert code == 0
    assert set(timings) == stages
    assert all(type(t) is int for t in timings.values())
    # every stage takes well over a microsecond, so none may round to 0
    assert all(t > 0 for t in timings.values())


DENSE_PHI = "x^2 + y^2 + x^2*y*v + v^2*x^2"


def _dense_theta(order):
    """The ``to-complex`` image of the dense real graph, as text."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main(["to-complex", "--phi", DENSE_PHI, "--order", str(order)]) == 0
    return json.loads(out.getvalue())["theta"]


@pytest.mark.parametrize(
    "command", ["check", "invariants", "verify-reality", "derive-ode", "dual", "to-complex",
                "rigid-check", "self-test"],
)
def test_stages_cover_the_job(command):
    # the named stages account for at least 90% of the job's wall time
    inputs = {
        "to-complex": {"phi": DENSE_PHI},
        "rigid-check": {"xi": "z*zb + z^4*zb^2 + z^2*zb^4 + z^3*zb^3 + 2*z^2*zb^2"},
        "self-test": {},
    }
    kwargs = inputs[command] if command in inputs else {"theta": _dense_theta(12)}
    cfg = cli.JobConfig(command=command, order=12, timings=True, **kwargs)
    gc.collect()  # a pause to collect earlier garbage is not the job's work
    start = time.perf_counter_ns()
    report = cli.run_job(cfg)
    wall = (time.perf_counter_ns() - start) // 1000
    assert sum(report.timings.values()) >= 0.9 * wall, report.timings


def test_self_test_passes(capsys):
    code = main(["self-test"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["verdict"] == "ok"
    assert all(v == "pass" for v in out["checks"].values())
    assert len(out["checks"]) >= 20


def test_pretty_output_is_valid_json(capsys):
    code = main(["check", "--theta", "-wb + z*zb", "--pretty"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["verdict"] == "spherical-to-order"
    assert "\n  " in out


def test_usage_error_exit_one():
    proc = run_cli(["check"])  # no theta anywhere
    assert proc.returncode == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["check", "--theta=-wb + z*zb", "--bogus"], "unrecognized arguments: --bogus"),
        (["check", "--theta=-wb + z*zb", "--order", "x"], "argument --order: invalid int value: 'x'"),
    ],
)
def test_argument_error_is_one_error_report(argv, message):
    proc = run_cli(argv, timeout=30)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)  # exactly one document
    assert out["verdict"] == "error"
    assert out["message"].startswith(message)
    assert proc.stderr == ""


def test_undeclared_variable_reports_its_offset(capsys):
    # the offset of ``q``; errors come in text order, so the missing ')' after
    # it is not the one reported
    code = main(["check", "--theta=-wb + z*q + (zb", "--order", "7"])
    assert code == 1
    assert capsys.readouterr().out == (
        '{"verdict":"error","tested_order":0,"witness_monomial":null,'
        '"witness_coefficient":null,"delta_at_origin":null,"timings":{},'
        '"message":"undeclared variable \'q\' (at position 8)"}\n'
    )


def test_derive_ode_payload(capsys):
    code = main(["derive-ode", "--theta", "-wb + z*zb", "--order", "8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["ode_rhs"] == "0"


def test_dual_payload(capsys):
    code = main(["dual", "--theta", "-wb + z*zb", "--order", "8"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert out["conjugate_equal"] is True
    assert out["koppisch"]["i1_vanishes"] is True


# report bytes from before the dual manifold was kept on the manifold
PINNED_DUAL = (
    '{"verdict":"ok","tested_order":9,"witness_monomial":null,"witness_coefficient":null,'
    '"delta_at_origin":null,"timings":{},"dual":"-b + x*a + x^2*a^2","dual_vars":["x","a","b"],'
    '"conjugate_equal":true,"koppisch":{"i1_vanishes":false,"i2_vanishes":false,'
    '"dual_i1_vanishes":false,"dual_i2_vanishes":false,"order":3}}'
)


def test_dual_job_builds_the_dual_once(capsys, monkeypatch):
    calls = []
    build = tr.dual_manifold

    def counted(*args):
        calls.append(1)
        return build(*args)

    # every binding a caller could look `dual_manifold` up at
    monkeypatch.setattr(tr, "dual_manifold", counted)
    monkeypatch.setattr(inv, "dual_manifold", counted, raising=False)
    monkeypatch.setattr(cli, "dual_manifold", counted, raising=False)
    code = main(["dual", "--theta", "-wb + z*zb + z^2*zb^2", "--order", "9"])
    assert code == 0
    assert capsys.readouterr().out.rstrip("\n") == PINNED_DUAL
    assert len(calls) == 1


def test_invariants_payload(capsys, monkeypatch):
    direct_calls = []
    direct = inv._aj4_direct
    monkeypatch.setattr(inv, "_aj4_direct", lambda theta: direct_calls.append(1) or direct(theta))
    code = main(["invariants", "--theta", "-wb + z*zb + z^2*zb^2", "--order", "10"])
    out = json.loads(capsys.readouterr().out)
    assert code == 0
    assert len(direct_calls) == 1  # the payload reuses the verdict's aj4
    assert out["verdict"] == "non-spherical"
    assert out["aj4_vanishes"] is False and out["aj6_vanishes"] is False
    assert out["witness_monomial"] == [2, 0, 0]


def _report(argv, run):
    """``(exit code, report)`` of ``argv`` run by ``run``, read from the
    ``--output`` file when there is one, with timing values dropped."""
    code, text = run(argv)
    if "--output" in argv:
        path = argv[argv.index("--output") + 1]
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        os.unlink(path)
    if "--timings" in argv:
        doc = json.loads(text)
        doc["timings"] = sorted(doc["timings"])
        text = json.dumps(doc)
    return code, text


def _in_process(argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = main(argv)
    return code, out.getvalue()


def _alone(argv):
    proc = run_cli(argv, timeout=60)
    return proc.returncode, proc.stdout


def test_the_parser_is_built_once_and_keeps_nothing_between_calls(tmp_path):
    assert cli._build_parser() is cli._build_parser()
    job = tmp_path / "job.txt"
    job.write_text('vars = z, zb, wb\ntheta = "-wb + z*zb + z^4*zb^2 + z^2*zb^4"\norder = 9\n')
    theta = "--theta=-wb + z*zb + z^2*zb^2"
    # each pair sets an option and then leaves it out: nothing may carry over
    sequence = [
        ["check", theta, "--order", "9", "--pretty"],
        ["check", theta, "--order", "9"],
        ["rigid-check", "--xi=z*zb + z^4*zb^2", "--order", "8", "--output", str(tmp_path / "r")],
        ["rigid-check", "--xi=z*zb + z^4*zb^2", "--order", "8"],
        ["invariants", theta, "--order", "8", "--timings"],
        ["invariants", theta, "--order", "8"],
        ["check", "--order", "x"],
        ["check", theta],
        ["check", "--input", str(job)],
        ["verify-reality", theta],
    ]
    in_sequence = [_report(argv, _in_process) for argv in sequence]
    assert in_sequence == [_report(argv, _alone) for argv in sequence]
    assert [code for code, _ in in_sequence] == [0, 0, 0, 0, 0, 0, 1, 0, 0, 0]


@pytest.mark.parametrize("refute", [False, True])
def test_a_check_job_leaves_no_cyclic_garbage(refute):
    # cyclic garbage waits for the collector and raises the peak memory of
    # a long run; the argparse parser built per call once left 284 objects
    argv = ["check", f"--theta={check_theta(random.Random(3), refute)}", "--order", "12"]
    _in_process(argv)  # the first call builds the parser
    gc.collect()
    gc.disable()
    try:
        _in_process(argv)
        assert gc.collect() == 0
    finally:
        gc.enable()
