"""Smoke test: every script in ``demos/`` runs to completion and prints finite
numbers, and the README's library quickstart gives the values it states."""

import ast
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
README = Path(__file__).resolve().parents[1] / "README.md"
COMMENTED_VALUE = re.compile(r"#\s*~?(\d+(?:\.\d+)?)")


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


def _readme_quickstart() -> str:
    """The ``python`` block under the README's "Library quickstart" heading."""
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quickstart\n", 1)[1]
    return section.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_quickstart_values_hold():
    # each expression line's commented value, to the precision it is written in
    source = _readme_quickstart()
    lines = source.splitlines()
    namespace: dict = {}
    checked = []
    for stmt in ast.parse(source).body:
        if not isinstance(stmt, ast.Expr):
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
            continue
        value = eval(compile(ast.Expression(stmt.value), str(README), "eval"), namespace)
        written = COMMENTED_VALUE.search(lines[stmt.end_lineno - 1])
        if written is None:
            continue
        decimals = len(written.group(1).partition(".")[2])
        assert round(value, decimals) == float(written.group(1)), \
            (lines[stmt.end_lineno - 1], value)
        checked.append(float(written.group(1)))
    assert checked == [701, 129, 68, 2043, 88, 1672, 55.8]
