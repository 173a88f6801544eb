"""Smoke test: every script in ``demos/`` runs to completion and prints finite numbers."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import h2gap

SRC_DIR = Path(h2gap.__file__).resolve().parents[1]
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))
NON_FINITE = re.compile(r"\b(nan|inf)\b", re.IGNORECASE)


def test_demos_are_found():
    # an empty glob would parametrize test_demo_runs away without a failure
    assert DEMOS, "no scripts found in demos/"


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, str(demo)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    assert not NON_FINITE.search(proc.stdout), proc.stdout
