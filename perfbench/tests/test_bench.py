"""Tests of the benchmark itself (not part of the program's test suite).

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as R
import workloads as W
from crsphere import ComplexDefining, RealGraph, levi_delta, parse_series, verify_reality
from crsphere.rational import GaussRat

ROOT = R.ROOT
GENERATED = ("check", "to-complex", "rigid-check")


def _argv_bytes(seed: int) -> bytes:
    jobs = [W.make_job(w, seed, i, "DENSE") for w in W.WORKLOADS for i in range(8)]
    return json.dumps([j.argv for j in jobs]).encode()


def test_same_seed_same_argv_bytes_across_interpreters():
    code = (
        "import sys, hashlib; sys.path.insert(0, 'perfbench'); "
        "sys.path.insert(0, 'perfbench/tests'); import test_bench as t; "
        "print(hashlib.sha256(t._argv_bytes(7)).hexdigest())"
    )
    outs = set()
    for hash_seed in ("1", "2"):
        env = {**R.child_env(), "PYTHONHASHSEED": hash_seed}
        proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=True)
        outs.add(proc.stdout.strip())
    assert len(outs) == 1
    assert outs == {__import__("hashlib").sha256(_argv_bytes(7)).hexdigest()}


def test_different_seed_different_inputs():
    for workload in GENERATED:
        a = [W.make_job(workload, 1, i, "DENSE").argv for i in range(1, 6)]
        b = [W.make_job(workload, 2, i, "DENSE").argv for i in range(1, 6)]
        assert all(x != y for x, y in zip(a, b)), workload


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_check_inputs_are_real_and_levi_nondegenerate(seed):
    for index in range(1, 7):
        job = W.make_job("check", seed, index)
        theta = parse_series(job.argv[1][len("--theta="):], ("z", "zb", "wb"), 12)
        d = ComplexDefining.from_theta(theta)
        assert verify_reality(d) is None
        delta, nondegenerate = levi_delta(d)
        assert nondegenerate and delta.constant_term() == GaussRat.of(1)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_graph_and_rigid_inputs_are_valid(seed):
    for index in range(6):
        phi_txt = W.make_job("to-complex", seed, index).argv[1][len("--phi="):]
        phi = parse_series(phi_txt, ("x", "y", "v"), 10)
        RealGraph(phi)  # real, vanishing to second order
        assert any(m[2] for m in phi.terms), "no v term: the input would be rigid"
        xi_txt = W.make_job("rigid-check", seed, index).argv[1][len("--xi="):]
        xi = parse_series(xi_txt, ("z", "zb"), 16)
        assert xi.conjugate({"z": "zb", "zb": "z"}).reorder(("z", "zb")) == xi
        assert xi.coeff((1, 1)) == GaussRat.of(1)


def _cli(argv) -> dict:
    _, code, text = R.run_in_process(argv)
    assert code == 0, text
    return json.loads(text)


def test_certify_and_refute_verdicts_at_low_order():
    for index in (1, 2, 3, 4):
        job = W.make_job("check", 5, index)
        rep = _cli(job.argv[:2] + ("--order", "8"))
        want = W.SPHERICAL if job.kind == "certify" else W.NON_SPHERICAL
        assert rep["verdict"] == want and rep["tested_order"] == 2
        if job.kind == "refute":
            assert rep["witness_monomial"] == [0, 0, 0]


@pytest.mark.parametrize("seed", [0, 1])
def test_rigid_witness_matches_sixth_order_route(seed):
    """The seven-term rigid formula and the sixth-order check of
    ``-wb + Xi`` give the same witness (Levi factor 1 at the origin)."""
    for index in range(3):
        job = W.make_job("rigid-check", seed, index)
        xi = job.argv[1][len("--xi="):]
        rigid = _cli(job.argv)
        full = _cli(("check", f"--theta=-wb + {xi}", "--order", job.argv[3]))
        assert rigid["verdict"] == full["verdict"]
        assert rigid["tested_order"] == full["tested_order"]
        if rigid["witness_monomial"] is not None:
            assert full["witness_monomial"] == rigid["witness_monomial"] + [0]
        assert full["witness_coefficient"] == rigid["witness_coefficient"]
        assert full["delta_at_origin"] == rigid["delta_at_origin"] == W.ONE


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace('"tested_order":10', '"tested_order":11'),
    lambda text: text.replace('"verdict":"', '"verdict":"x'),
    lambda text: text.replace("/1", "1/1", 1),  # schema intact: only the digest catches it
    lambda text: text + text,
])
def test_corrupted_report_is_counted_as_failed(monkeypatch, corrupt):
    real = R.run_in_process

    def corrupted(argv):
        seconds, code, text = real(argv)
        return seconds, code, corrupt(text)

    monkeypatch.setattr(R, "run_in_process", corrupted)
    seed = R.load_digests()["pinned_seed"]
    runs, _, _ = R.run_loop("rigid-check", seed, 0.5, "", traced=False)
    R.check_runs("rigid-check", seed, runs, R.load_digests())
    assert runs and all(r.failure is not None for r in runs)


def test_uncorrupted_pinned_reports_pass():
    seed = R.load_digests()["pinned_seed"]
    runs, _, _ = R.run_loop("rigid-check", seed, 0.5, "", traced=True)
    R.check_runs("rigid-check", seed, runs, R.load_digests())
    assert [r.failure for r in runs] == [None] * len(runs)


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_printed_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        proc = _bench("--workload", "rigid-check", "--seed", "3", "--seconds", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == [m["name"] for m in spec[key]]
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_benchmark_json_workloads_are_generated_here():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names and set(names) <= set(W.WORKLOADS)


def test_fails_without_program_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "check", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
