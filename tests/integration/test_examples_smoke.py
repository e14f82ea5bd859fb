"""Smoke tests for the example scripts.

Each example is a full scenario (training included); all seven run in
well under a minute on a 2-vCPU host.  Running them is gated behind
``REPRO_RUN_EXAMPLE_TESTS=1``, which CI's ``test`` job sets in a step of
its own, so the default suite stays quick.  The cheap checks (scripts
compile, expose ``main``) always run.
"""

import importlib.util
import os
import pathlib
import subprocess
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).resolve().parents[2] / "examples"
EXAMPLES = sorted(EXAMPLES_DIR.glob("*.py"))

RUN_FULL = os.environ.get("REPRO_RUN_EXAMPLE_TESTS") == "1"


def test_examples_exist():
    names = {p.name for p in EXAMPLES}
    assert "quickstart.py" in names
    assert len(EXAMPLES) >= 3  # the deliverable floor


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
def test_example_compiles_and_has_main(path):
    source = path.read_text()
    compile(source, str(path), "exec")  # syntax
    assert "def main(" in source
    assert '__name__ == "__main__"' in source


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda p: p.name)
@pytest.mark.skipif(not RUN_FULL, reason="set REPRO_RUN_EXAMPLE_TESTS=1")
def test_example_runs(path):
    result = subprocess.run(
        [sys.executable, str(path)],
        capture_output=True,
        text=True,
        timeout=900,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()
