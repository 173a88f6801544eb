"""The golden digests under every Python named in ``H2GAP_CROSS_PYTHONS``.

Report bytes must not depend on the Python version: every float total goes
through ``units.fold_sum``, because the built-in ``sum`` rounds differently
from 3.12 on. Tier-1 runs under one interpreter, often the only one with
pytest, so this test runs ``tests/golden/regen.py --check`` (stdlib only)
under each interpreter the variable names, separated by ``os.pathsep``, and
skips when it names none::

    H2GAP_CROSS_PYTHONS=/usr/bin/python3.10:/usr/bin/python3.13 \\
        PYTHONPATH=src python -m pytest tests/test_cross_python.py
"""

import os
import subprocess
from pathlib import Path

import pytest

import h2gap

ENV_PYTHONS = "H2GAP_CROSS_PYTHONS"
REGEN = Path(__file__).parent / "golden" / "regen.py"
SRC_DIR = str(Path(h2gap.__file__).resolve().parents[1])
PYTHONS = [p for p in os.environ.get(ENV_PYTHONS, "").split(os.pathsep) if p]


@pytest.mark.skipif(not PYTHONS, reason=f"{ENV_PYTHONS} names no interpreter")
@pytest.mark.parametrize("python", PYTHONS or ["unset"])
def test_golden_digests_hold_under(python):
    env = {**os.environ, "PYTHONPATH": SRC_DIR}
    proc = subprocess.run([python, str(REGEN), "--check"], capture_output=True,
                          text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
