"""The README against the code: its module table and its ``--timings`` stages."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

from crsphere.cli import main

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_module_table_names_exactly_the_modules():
    rows = [line for line in README.splitlines() if line.startswith("| `crsphere.")]
    listed = [name for row in rows for name in re.findall(r"`crsphere\.(\w+)`", row.split("|")[1])]
    modules = [path.stem for path in (ROOT / "src" / "crsphere").glob("*.py")]
    assert sorted(listed) == sorted(name for name in modules if name != "__init__")


@pytest.mark.parametrize(
    "argv",
    [["check", "--theta", "-wb + z*zb"], ["rigid-check", "--xi", "z*zb"]],
)
def test_timings_stages_are_the_readme_lists(argv):
    # both inputs are spherical, so every stage of the command runs
    listed = re.search(rf"for `{argv[0]}`: ([^;)]*)", " ".join(README.split())).group(1)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert main([*argv, "--timings"]) == 0
    assert sorted(json.loads(out.getvalue())["timings"]) == sorted(re.findall(r"`(\w+)`", listed))
