"""CLI contract: exit codes, deterministic JSON, file input, env cap."""

import argparse
import contextlib
import gc
import io
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crsphere
import crsphere.cli as cli
import crsphere.defining as dm
import crsphere.invariants as inv
import crsphere.selftest as audit
import crsphere.transfer as tr
from crsphere.cli import main
from crsphere.defining import XI_VARS
from crsphere.parsing import render_series
from crsphere.rational import GaussRat
from crsphere.report import (
    VERDICT_LEVI_DEGENERATE,
    VERDICT_NON_SPHERICAL,
    VERDICT_REALITY_VIOLATED,
    VERDICT_SPHERICAL,
    Report,
    render_report,
)
from crsphere.selftest import rigid_invariant
from crsphere.series import TruncSeries

from conftest import check_theta, gauss_rats
from random_inputs import random_hermitian_xi

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


@pytest.mark.parametrize("theta", ["-wb + z*zb + 7...7*z^2*zb^2", "-wb + z^7...7*zb"])
def test_literal_past_the_int_text_limit_is_one_error_report(theta):
    # 4,401 digits: more than ``int()`` converts from text
    proc = run_cli(["check", "--theta", theta.replace("7...7", "7" * 4401)], timeout=10)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)  # exactly one document
    assert out["verdict"] == "error"
    assert "exceeds" in out["message"] and len(out["message"]) < 100
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
    # ``self-test`` imports the audit when it runs, and must see the patch
    original = audit.THIRD_JET_TABLE
    flipped = ((original[0][0], -original[0][1]) + original[0][2:],) + original[1:]
    monkeypatch.setattr(audit, "THIRD_JET_TABLE", flipped)
    code = main(["self-test"])
    out = json.loads(capsys.readouterr().out)
    assert code == 2
    assert out["verdict"] == "error"


def test_aj4_disagreement_exit_two(capsys, monkeypatch):
    direct = inv._aj4_direct
    monkeypatch.setattr(
        inv, "_aj4_direct", lambda theta: direct(theta) + TruncSeries.one(theta.vars, theta.order)
    )
    # ``rigid-check`` runs the same cross-checked verdict on ``-wb + Xi``
    for argv in (["check", "--theta", "-wb + z*zb"], ["rigid-check", "--xi", "z*zb"]):
        code = main([*argv, "--order", "8"])
        out = json.loads(capsys.readouterr().out)  # exactly one document
        assert code == 2
        assert out["verdict"] == "error"


def test_rigid_check_makes_no_division(capsys, monkeypatch):
    calls = []
    div = TruncSeries.div
    monkeypatch.setattr(TruncSeries, "div", lambda f, g: calls.append(1) or div(f, g))
    code = main(["rigid-check", "--xi", "2*z*zb + z^4*zb^2 + z^2*zb^4", "--order", "16"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "non-spherical"
    assert calls == []  # the witness coefficient is divided by u(0)^7 as a scalar


def _seven_term_report(xi: TruncSeries) -> Report:
    """The ``rigid-check`` report by the seven-term formula alone: the
    Hermitian defect of ``Xi``, its Levi factor ``Xi_z,zb(0)``, then the
    lowest term of ``rigid_invariant``."""
    defect = xi - xi.conjugate({"z": "zb", "zb": "z"}).reorder(XI_VARS)
    if not defect.is_zero():
        return Report(VERDICT_REALITY_VIOLATED, xi.order, *defect.lowest_term())
    levi = xi.derive("z").derive("zb").constant_term()
    if levi.is_zero():
        return Report(VERDICT_LEVI_DEGENERATE, xi.order, delta_at_origin=levi)
    obstruction = rigid_invariant(xi)
    if obstruction.is_zero():
        return Report(VERDICT_SPHERICAL, obstruction.order, delta_at_origin=levi)
    return Report(VERDICT_NON_SPHERICAL, obstruction.order, *obstruction.lowest_term(), levi)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**32), st.integers(7, 16), st.sampled_from([1, 2, 5]),
    gauss_rats, gauss_rats, gauss_rats,
)
def test_rigid_check_matches_the_seven_term_formula(seed, order, u0, const, lin, harmonic):
    # a Hermitian Xi with Levi factor u0 and constant, linear and pure-harmonic terms
    low = {
        (0, 0): GaussRat(const.re),
        (1, 0): lin, (0, 1): lin.conj(),
        (1, 1): GaussRat.of(u0 - 1),
        (2, 0): harmonic, (0, 2): harmonic.conj(),
    }
    xi = random_hermitian_xi(random.Random(seed), order) + TruncSeries(XI_VARS, low, order)
    report = cli.run_job(cli.JobConfig(command="rigid-check", text=render_series(xi), order=order))
    assert render_report(report) == render_report(_seven_term_report(xi))


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


@pytest.mark.parametrize(
    "job, wrong, message",
    [
        (["check", "--theta=-wb + z*zb"], "x, y, v",
         "defining function must use variables ('z', 'zb', 'wb')"),
        (["to-complex", "--phi=x^2 + y^2"], "z, zb, wb",
         "real graphing function must use variables ('x', 'y', 'v')"),
        (["rigid-check", "--xi=z*zb"], "z, zb, wb", "rigid part must use variables ('z', 'zb')"),
    ],
)
def test_vars_other_than_the_input_space_is_one_error_report(tmp_path, job, wrong, message):
    path = tmp_path / "job.txt"
    path.write_text(f"vars = {wrong}\n")
    for argv in ([*job, "--vars", wrong], [*job, "--input", str(path)]):
        proc = run_cli(argv, timeout=30)
        assert proc.returncode == 1 and proc.stderr == ""
        assert json.loads(proc.stdout)["message"] == message  # exactly one document
    # the input's own space, spaced as the user likes, is accepted
    names = message.split("(")[1].rstrip(")").replace("'", "").replace(", ", " ,")
    assert main([*job, "--vars", names]) == 0


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


@pytest.mark.parametrize(
    "target, message",
    [("missing/r.json", "No such file or directory"), ("directory", "Is a directory")],
)
def test_unwritable_output_is_one_error_report(tmp_path, target, message):
    (tmp_path / "directory").mkdir()
    path = tmp_path / target
    proc = run_cli(["check", "--theta=-wb + z*zb", "--output", str(path)], timeout=30)
    assert proc.returncode == 1
    out = json.loads(proc.stdout)  # exactly one document
    assert out["verdict"] == "error"
    assert out["message"] == f"cannot write {path}: {message}"
    assert proc.stderr == ""
    assert os.listdir(tmp_path) == ["directory"]  # no temporary file is left
    assert os.listdir(tmp_path / "directory") == []


@pytest.mark.parametrize("args", [["check", "--theta=-wb+z*zb", "--order", "8"], ["self-test"], None])
def test_closed_stdout_exits_one_without_traceback(tmp_path, args):
    # None: a report that cannot be written to --output, then not to stdout either
    args = args or ["check", "--theta=-wb+z*zb", "--output", str(tmp_path / "missing" / "r.json")]
    read, write = os.pipe()
    os.close(read)  # no reader is left, so every write to the pipe fails
    try:
        proc = subprocess.run([sys.executable, "-m", "crsphere.cli", *args], stdout=write,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 1
    assert proc.stderr == ""


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
        (["dual", "--theta", "-wb + z*zb + z^2*zb^2"], {"parse", "levi", "dual", "koppisch", "render"}),
        (["rigid-check", "--xi", "z*zb + z^2*zb^2"], {"parse", "reality", "levi", "aj4", "aj6"}),
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
        "to-complex": DENSE_PHI,
        "rigid-check": "z*zb + z^4*zb^2 + z^2*zb^4 + z^3*zb^3 + 2*z^2*zb^2",
        "self-test": None,
    }
    text = inputs[command] if command in inputs else _dense_theta(12)
    cfg = cli.JobConfig(command=command, text=text, order=12, timings=True)
    gc.collect()  # a pause to collect earlier garbage is not the job's work
    start = time.perf_counter_ns()
    report = cli.run_job(cfg)
    wall = (time.perf_counter_ns() - start) // 1000
    assert sum(report.timings.values()) >= 0.9 * wall, report.timings


AUDIT_NAMES = {
    "TransferOps", "first_jet_transfer", "apply_dx", "apply_dy", "apply_dyx",
    "total_deriv_check", "second_jet_transfer", "THIRD_JET_TABLE",
    "DET_DERIVATIVE_IDENTITIES", "REPEATED_COLUMN_SPECIES", "third_jet_expanded",
    "third_jet_check",
}

# runs one job, then prints the exit code, the crsphere modules loaded and
# the names of ``crsphere`` and ``crsphere.transfer``
LOADED_PROBE = """
import contextlib, io, json, sys
import crsphere, crsphere.cli, crsphere.transfer
with contextlib.redirect_stdout(io.StringIO()):
    code = crsphere.cli.main(sys.argv[1:])
print(json.dumps({"code": code, "modules": [m for m in sys.modules if m.startswith("crsphere")],
                  "names": [*vars(crsphere), *vars(crsphere.transfer)]}))
"""


@pytest.mark.parametrize("command", [name for name in cli.COMMANDS if name != "self-test"])
def test_only_self_test_loads_the_audit(command):
    inputs = {"to-complex": ["--phi", "x^2 + y^2"], "rigid-check": ["--xi", "z*zb + z^2*zb^2"]}
    argv = [command, *inputs.get(command, ["--theta", "-wb + z*zb + z^2*zb^2"]), "--order", "8"]
    proc = subprocess.run(
        [sys.executable, "-c", LOADED_PROBE, *argv], capture_output=True, text=True, timeout=60
    )
    out = json.loads(proc.stdout)
    assert out["code"] == 0
    assert "crsphere.selftest" not in out["modules"]
    assert "crsphere.fixtures" not in out["modules"]
    assert not AUDIT_NAMES & set(out["names"])


# modules a command's process need not load: ``dataclasses`` and ``typing``
# (each brings ``inspect``), ``tempfile`` (only ``--output`` needs it),
# ``shutil`` (argparse's help width; the CLI reads it with ``os``), the
# solver (only the commands that solve) and the audit (only ``self-test``)
UNLOADED = {"dataclasses", "inspect", "typing", "tempfile", "shutil", "crsphere.solve",
            "crsphere.selftest", "crsphere.fixtures"}
IMPORT_BUDGETS = {
    "check": (["--theta", "-wb + z*zb"], UNLOADED),
    "rigid-check": (["--xi", "z*zb + z^2*zb^2"], UNLOADED),
    "self-test": ([], {"dataclasses", "inspect", "shutil"}),
}
# runs one job as the ``crsphere`` entry point does, then lists the modules
BUDGET_PROBE = """
import sys
from crsphere.cli import main
code = main(sys.argv[1:])
sys.stderr.write(" ".join(sys.modules))
sys.exit(code)
"""


@pytest.mark.parametrize("command", sorted(IMPORT_BUDGETS))
def test_a_command_process_loads_only_what_it_runs(command):
    args, unloaded = IMPORT_BUDGETS[command]
    # ``-S`` keeps out what ``site`` and its ``.pth`` files import, so the
    # source tree is named on the path
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-S", "-c", BUDGET_PROBE, command, *args, "--order", "7"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["verdict"] in ("spherical-to-order", "non-spherical", "ok")
    assert not unloaded & set(proc.stderr.split())


@pytest.mark.parametrize("columns", ["40", "80", "200", None])
def test_help_is_argparse_help_at_the_terminal_width(monkeypatch, columns):
    # the CLI's formatter reads the width as ``shutil.get_terminal_size`` does
    if columns is None:
        monkeypatch.delenv("COLUMNS", raising=False)
    else:
        monkeypatch.setenv("COLUMNS", columns)

    def helps():
        parser = cli._build_parser.__wrapped__()
        commands = parser._subparsers._group_actions[0].choices.values()
        return [p.format_help() for p in (parser, *commands)]

    ours = helps()
    monkeypatch.setattr(cli, "_Formatter", argparse.HelpFormatter)
    assert helps() == ours


def test_package_names_load_lazily():
    probe = "import json, sys, crsphere; print(json.dumps([m for m in sys.modules if 'crsphere' in m]))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, timeout=60)
    assert json.loads(proc.stdout) == ["crsphere"]
    # every exported name resolves to its module's object, and is listed
    for name in crsphere.__all__:
        assert getattr(crsphere, name) is not None
    assert set(crsphere.__all__) <= set(dir(crsphere))
    assert crsphere.TruncSeries is TruncSeries and crsphere.rigid_invariant is rigid_invariant
    with pytest.raises(AttributeError):
        crsphere.aj4  # noqa: B018 - the division by delta^3 is a test reference


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


def test_dual_of_a_levi_degenerate_theta_is_a_verdict():
    # ``dual`` answers as ``derive-ode`` does, before it builds a dual manifold
    procs = [run_cli([command, "--theta=-wb", "--order", "4"], timeout=30)
             for command in ("dual", "derive-ode")]
    assert [p.returncode for p in procs] == [0, 0] and procs[0].stderr == ""
    assert procs[0].stdout == procs[1].stdout
    assert json.loads(procs[0].stdout)["verdict"] == VERDICT_LEVI_DEGENERATE


def test_a_job_detects_rigidity_only_for_to_complex(capsys, monkeypatch):
    rigid, direct_calls = [], []
    detect, direct = dm.detect_rigid, inv._aj4_direct
    for module in (dm, cli):
        monkeypatch.setattr(module, "detect_rigid", lambda theta: rigid.append(1) or detect(theta))
    monkeypatch.setattr(inv, "_aj4_direct", lambda theta: direct_calls.append(1) or direct(theta))
    assert main(["check", "--theta", "-wb + z*zb + z^2*zb^2", "--order", "10"]) == 0
    assert (len(rigid), len(direct_calls)) == (0, 1)
    for phi, want in (("x^2 + y^2", True), (DENSE_PHI, False)):
        capsys.readouterr()
        assert main(["to-complex", "--phi", phi, "--order", "8"]) == 0
        assert json.loads(capsys.readouterr().out)["rigid"] is want
    assert len(rigid) == 2


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
