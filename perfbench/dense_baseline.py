"""Time the ROADMAP dense input through the CLI, for the baseline table.

    python3 perfbench/dense_baseline.py [repeats]

For orders 10 and 12: ``to-complex`` of ``x^2 + y^2 + x^2*y*v + v^2*x^2``,
then ``check`` of the resulting theta.  Prints the median wall time of
each over ``repeats`` (default 3) in-process runs.
"""

from __future__ import annotations

import json
import statistics
import sys

import run as R
import workloads as W


def main(repeats: int) -> int:
    sys.path.insert(0, str(R.SRC))
    for order in ("10", "12"):
        convert = ("to-complex", f"--phi={W.DENSE_PHI}", "--order", order)
        times = [R.run_in_process(convert) for _ in range(repeats)]
        theta = json.loads(times[0][2])["theta"]
        verdict = [R.run_in_process(("check", f"--theta={theta}", "--order", order))
                   for _ in range(repeats)]
        report = json.loads(verdict[0][2])
        print(f"order {order}: to-complex {statistics.median(t[0] for t in times):.3f} s, "
              f"check {statistics.median(t[0] for t in verdict):.3f} s "
              f"({report['verdict']}, witness {report['witness_monomial']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 3))
