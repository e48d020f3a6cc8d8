"""The CLI is total: every command, expression text, order and job file
gives exactly one JSON report on stdout, exit code 0 or 1, and no
traceback.

Each case runs ``python -m crsphere.cli`` in a process of its own with a
timeout, under ``CRS_MAX_ORDER=200``, so that orders past the series'
ceiling of 128 reach the program.
"""

import json
import os
import subprocess
import sys
import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

COMMANDS = (
    "check", "to-complex", "verify-reality", "derive-ode", "invariants", "rigid-check", "dual",
    "self-test",
)
# the option that carries each command's input, and its job-file key
INPUT = {"to-complex": "phi", "rigid-check": "xi", "self-test": None}

# half of them working orders; the others are below a command's minimum,
# or past the series' ceiling of 128, under the cap of 200 or capped to it
orders = st.one_of(
    st.sampled_from((7, 8, 10)), st.sampled_from((-3, 0, 5, 129, 150, 200, 250))
).map(str)

# each input's variables, and a shape that keeps a pipeline going past its
# first checks: a valid leading part plus the drawn text times a quadric
SPACES = {
    "theta": (("z", "zb", "wb"), "-wb + z*zb + ({})*z*zb"),
    "phi": (("x", "y", "v"), "x^2 + y^2 + ({})*x*y"),
    "xi": (("z", "zb"), "z*zb + ({})*z*zb"),
}


def _valid(names):
    atoms = st.sampled_from(["0", "1", "2", "3/4", "i", *names])
    return st.recursive(
        atoms,
        lambda inner: st.one_of(
            st.tuples(inner, st.sampled_from(["+", "-", "*"]), inner).map(
                lambda t: f"({t[0]} {t[1]} {t[2]})"
            ),
            st.tuples(inner, st.integers(0, 5)).map(lambda t: f"{t[0]}^{t[1]}"),
        ),
        max_leaves=6,
    )


# text off the grammar: stray operators, a zero denominator, an undeclared
# name, a huge exponent, a character outside the grammar
_pieces = ["z", "zb", "wb", "x", "1", "/0", "+", "-", "*", "^", "(", ")", "q", "^99999", "$"]
_soup = st.lists(st.sampled_from(_pieces), max_size=10).map("".join)


def texts(key):
    names, shape = SPACES[key]
    return st.one_of(_valid(names).map(shape.format), st.one_of(_valid(names), _soup))


def _often(draw):
    return draw(st.integers(0, 4)) > 0


_job_values = {
    "vars": st.sampled_from(["z, zb, wb", "x,y,v", "z,zb", "a, a", ""]),
    "order": st.one_of(orders, st.just("abc")),
    **{key: texts(key) for key in SPACES},
    "color": st.just("blue"),
}
job_files = st.lists(
    st.one_of(
        st.sampled_from(sorted(_job_values)).flatmap(
            lambda key: st.tuples(st.just(key), _job_values[key], st.booleans()).map(
                lambda t: f'{t[0]} = "{t[1]}"' if t[2] else f"{t[0]} = {t[1]}"
            )
        ),
        st.sampled_from(["# a comment", "", "no equals sign"]),
    ),
    max_size=5,
).map("\n".join)


@st.composite
def invocations(draw):
    """``(argv, job file text or None)``: mostly a command, its input inline
    and an order; now and then a job file, appended as ``--input``."""
    command = draw(st.sampled_from(COMMANDS))
    argv = [command]
    key = INPUT.get(command, "theta")
    if key is not None and _often(draw):
        argv.append(f"--{key}={draw(texts(key))}")
    if _often(draw):
        argv += ["--order", draw(orders)]
    return argv, None if _often(draw) else draw(job_files)


@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocations())
def test_every_invocation_gives_one_report(case):
    argv, job = case
    with tempfile.TemporaryDirectory() as tmp:
        if job is not None:
            path = os.path.join(tmp, "job.txt")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(job)
            argv = [*argv, "--input", path]
        proc = subprocess.run(
            [sys.executable, "-m", "crsphere.cli", *argv],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "CRS_MAX_ORDER": "200"},
        )
    assert proc.returncode in (0, 1), (argv, job, proc.stdout, proc.stderr)
    assert "Traceback" not in proc.stderr, (argv, job, proc.stderr)
    assert proc.stdout.count("\n") == 1 and proc.stdout.endswith("\n")
    report = json.loads(proc.stdout)  # exactly one document
    assert (report["verdict"] == "error") == (proc.returncode == 1)
