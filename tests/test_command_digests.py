"""Report bytes of the four commands the benchmark digests do not pin:
``invariants``, ``verify-reality``, ``derive-ode`` and ``dual``, each on
ten ``check``-workload Theta, the corpus fixtures, a reality-violating
and a Levi-degenerate Theta.  ``command_digests.json`` holds each input
with its order and, per command, the exit code and report digest.

Run as a script to record the file again at the current commit::

    PYTHONPATH=src python tests/test_command_digests.py
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

from crsphere import cli

DATA = Path(__file__).with_name("command_digests.json")
COMMANDS = ("invariants", "verify-reality", "derive-ode", "dual")


def _digest(argv) -> list:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return [code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()[:16]]


def _argv(command, job) -> list:
    return [command, "--theta", job["theta"], "--order", str(job["order"])]


def test_every_recorded_report_digest_matches(monkeypatch):
    monkeypatch.delenv("CRS_MAX_ORDER", raising=False)
    pinned = json.loads(DATA.read_text(encoding="utf-8"))
    for command in COMMANDS:
        for label, job in pinned["inputs"].items():
            want = pinned["digests"][command][label]
            assert _digest(_argv(command, job)) == want, (command, label)
    assert len(pinned["inputs"]) == 18


def _inputs() -> dict:
    import random

    from conftest import check_theta
    from crsphere.fixtures import XI_NONSPHERICAL, corpus_biholos, heisenberg, transform_defining
    from crsphere.parsing import render_series

    inputs = {}
    for i in range(10):
        refute = i % 2 == 1
        rng = random.Random(f"command-digests:{i}")
        inputs[f"check-{'refute' if refute else 'certify'}-{i}"] = {
            "theta": check_theta(rng, refute), "order": 12,
        }
    base = heisenberg(10)
    inputs["heisenberg"] = {"theta": render_series(base.theta), "order": 10}
    for i, h in enumerate(corpus_biholos(10)):
        image = transform_defining(base, h, 10)
        inputs[f"image-{i}"] = {"theta": render_series(image.theta), "order": 10}
    for i, (xi, _, _) in enumerate(XI_NONSPHERICAL):
        inputs[f"rigid-{i}"] = {"theta": f"-wb + {xi}", "order": 12}
    inputs["reality-violated"] = {"theta": "-wb + i*z*zb + z^2*zb^2", "order": 10}
    inputs["levi-degenerate"] = {"theta": "-wb + z^2*zb^2", "order": 10}
    return inputs


if __name__ == "__main__":
    import sys

    sys.path.insert(0, str(Path(__file__).parent))
    inputs = _inputs()
    digests = {
        command: {label: _digest(_argv(command, job)) for label, job in inputs.items()}
        for command in COMMANDS
    }
    DATA.write_text(
        json.dumps({"inputs": inputs, "digests": digests}, indent=1) + "\n", encoding="utf-8"
    )
    print(f"{len(inputs)} inputs, {len(COMMANDS)} commands")
