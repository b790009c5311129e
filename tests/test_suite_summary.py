"""The suite's closing line on the deliberately red tests (``conftest``'s
``pytest_terminal_summary``), read off runs in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import futs

ROOT = Path(__file__).parents[1]
DELIBERATE = "tests/test_logic.py::test_diamond_conjunction_distribution_as_displayed"


def summary_line(*selection) -> str:
    env = dict(os.environ, PYTHONPATH=str(Path(futs.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          *selection], cwd=ROOT, env=env, capture_output=True, text=True).stdout
    return next(line for line in out.splitlines() if line.startswith("deliberate failures:"))


@pytest.mark.parametrize("selection, line", [
    # a file without deliberate tests adds nothing to expect
    ((DELIBERATE, "tests/test_monoid.py::test_zero_examples"),
     "deliberate failures: as documented"),
    # the deliberate test's file ran, the test did not: as if renamed or deleted
    (("tests/test_logic.py::test_empty_carrier",),
     "deliberate failures: NOT as documented; unexpected failures: none; deliberate tests "
     "that passed: none; deliberate tests that did not run: "
     "test_logic.py::test_diamond_conjunction_distribution_as_displayed"),
], ids=["documented", "did-not-run"])
def test_summary_line(selection, line):
    assert summary_line(*selection) == line
