"""The benchmark's and the mutation tool's own unit tests, run as part of the
test suite.

The benchmark's pin the layer counts of the subsidy sweep (225/405 LCOH
evaluations per schedule) and the patch points of ``bench/tracer.py``, so a
change to h2gap that breaks either fails here without any edit under
``bench/``. The mutation tool's run ``tools/mutate.py`` on a toy module with
known survivors. An installed package has neither ``bench/`` nor ``tools/``;
the tests are skipped there.
"""

import ast
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


@pytest.mark.skipif(not (ROOT / "tools" / "test_mutate.py").is_file(),
                    reason="tools/ is not part of this tree")
def test_mutation_tool_unit_tests_pass():
    proc = subprocess.run([sys.executable, "-m", "unittest", "discover", "-s", "tools"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]


@pytest.mark.skipif(not (ROOT / "bench" / "oracle.py").is_file(),
                    reason="bench/ is not part of this tree")
def test_oracle_imports_no_h2gap_module():
    # the tests and the benchmark check h2gap against this reference; one
    # that called the library would compare the code with itself
    tree = ast.parse((ROOT / "bench" / "oracle.py").read_text())
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    roots = {name.split(".")[0] for name in imported}
    assert roots and "h2gap" not in roots, roots
