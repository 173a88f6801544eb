"""The benchmark's own unit tests, run as part of the test suite.

They pin the layer counts of the subsidy sweep (225/405 LCOH evaluations per
schedule) and the patch points of ``bench/tracer.py``, so a change to h2gap
that breaks either fails here without any edit under ``bench/``. An installed
package has no ``bench/`` directory; the test is skipped there.
"""

import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(not (ROOT / "bench" / "test_bench.py").is_file(),
                    reason="bench/ is not part of this tree")
def test_benchmark_unit_tests_pass():
    proc = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench",
         "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
