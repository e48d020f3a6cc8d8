"""Report bytes pinned by the benchmark: every job whose digest
``perfbench/digests.json`` records, run through ``crsphere.cli.main`` in
this process, gives a report with that digest.  The jobs and the digest
function come from ``perfbench/workloads.py``; nothing there is changed.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from crsphere import cli

BENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(BENCH))
import workloads  # noqa: E402

PINNED = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


def _run(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def test_every_pinned_report_digest_matches(monkeypatch):
    monkeypatch.delenv("CRS_MAX_ORDER", raising=False)  # as the benchmark runs its jobs
    code, text = _run(workloads.dense_argv())
    assert code == 0
    dense = json.loads(text)["theta"]
    seed = PINNED["pinned_seed"]
    counts = {}
    for workload, digests in PINNED["jobs"].items():
        for index, want in enumerate(digests):
            job = workloads.make_job(workload, seed, index, dense)
            code, text = _run(job.argv)
            assert workloads.check_report(job, code, text) is None, (workload, index)
            assert workloads.digest(text) == want, (workload, index, job.argv)
        counts[workload] = len(digests)
    assert counts == {"check": 30, "to-complex": 24, "rigid-check": 100, "self-test": 1}
