"""Record the report digests that run.py checks, at the current commit.

    python3 perfbench/record_digests.py

Runs the first jobs of every workload for the pinned seed and writes
``perfbench/digests.json``.  Rerun only when a change is meant to alter
report bytes, and say so in the change.
"""

from __future__ import annotations

import json
import sys

import run as R
import workloads as W

PINNED_SEED = 0
# enough jobs to cover a 20-second run of each workload at this commit
COUNTS = {"check": 30, "to-complex": 24, "rigid-check": 100, "self-test": 1}


def main() -> int:
    sys.path.insert(0, str(R.SRC))
    digests = {"pinned_seed": PINNED_SEED, "jobs": {}}
    dense = R.dense_theta()
    for workload, count in COUNTS.items():
        recorded = []
        for index in range(count):
            job = W.make_job(workload, PINNED_SEED, index, dense)
            _, code, text = R.execute(workload, job)
            failure = W.check_report(job, code, text)
            if failure is not None:
                print(f"{workload} job {index}: {failure}", file=sys.stderr)
                return 1
            recorded.append(W.digest(text))
        digests["jobs"][workload] = recorded
        print(f"{workload}: {count} digests")
    R.DIGESTS.write_text(json.dumps(digests, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
