"""CLI contract: exit codes, deterministic JSON, file input, env cap."""

import json
import os
import subprocess
import sys

import crsphere.invariants as inv
import crsphere.transfer as tr
from crsphere.cli import main
from crsphere.series import TruncSeries

FIXED_KEYS = [
    "verdict",
    "tested_order",
    "witness_monomial",
    "witness_coefficient",
    "delta_at_origin",
    "timings",
]


def run_cli(args):
    proc = subprocess.run(
        [sys.executable, "-m", "crsphere.cli", *args],
        capture_output=True,
        text=True,
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


def test_byte_identical_reports_across_runs():
    args = ["check", "--theta", "-wb + z*zb + z^2*zb^2", "--order", "9"]
    first = run_cli(args)
    second = run_cli(args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


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
