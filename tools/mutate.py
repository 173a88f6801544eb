"""Mutation pass: which one-node changes to the source does the test suite miss?

Run from the repository root::

    python3 tools/mutate.py --kind statements src/h2gap/*.py
    python3 tools/mutate.py --kind operators src/h2gap/costs.py src/h2gap/subsidies.py

Two kinds of mutant, each changing one node inside a function body:

``statements``
    one statement replaced by ``pass`` (a docstring is not a statement here);
``operators``
    one flip of ``<``/``<=``, ``>``/``>=``, ``+``/``-`` or ``*``/``/`` (the
    augmented assignments ``+=``/``-=`` and ``*=``/``/=`` included), or one
    numeric constant plus 1.

A mutant is the module's syntax tree with that one node changed, written out
by ``ast.unparse``; the unmutated baseline is the same module unparsed, so the
two differ in that node only. Every mutant is written into a copy of the
repository under a temporary directory; the working tree is never touched.
As many copies as the host has CPUs run at once. A mutant runs the stages in
order and is killed by the first that fails or times out, so each stage runs
``pytest -x``. The stages are tier-1 without ``tests/test_bench_selftest.py``
and then all of tier-1: most mutants die in the first, and only its survivors
pay for the benchmark's and this tool's own unit tests. Before any mutant, the
baseline must pass every stage; each stage's timeout is five times its
baseline time, and at least a minute.

The survivors print to stdout, one ``file:line kind detail (col N)`` a line,
at the line and column of the changed node in the original source, and the
progress and a per-file tally to stderr. It takes minutes to hours, so it is
not part of tier-1; its own test, ``python3 -m unittest discover -s tools``,
is (``tests/test_bench_selftest.py``).
"""

from __future__ import annotations

import argparse
import ast
import os
import shlex
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from queue import Queue
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
JOBS = os.cpu_count() or 1    # scratch copies tested at once
_PYTEST = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
DEFAULT_STAGES = (
    [*_PYTEST, "--ignore=tests/test_bench_selftest.py"],
    _PYTEST,
)
_IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                 ".benchmarks", ".work", "h2gap_out")

_FLIPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
           ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}


class Mutant(NamedTuple):
    path: str        # relative to the repository root
    line: int        # where the changed node starts in the original source
    col: int
    kind: str
    detail: str
    site: int        # index of the node in _function_nodes
    arg: int = 0     # which comparison of a chained compare

    def apply(self, source: str) -> str:
        """The mutated module, written out by ``ast.unparse``."""
        tree = ast.parse(source)
        node = _function_nodes(tree)[self.site]
        if self.kind == "statements":
            body, i = _parent_lists(tree)[id(node)]
            body[i] = ast.copy_location(ast.Pass(), node)
        elif isinstance(node, ast.Constant):
            node.value += 1
        elif isinstance(node, ast.Compare):
            node.ops[self.arg] = _FLIPS[type(node.ops[self.arg])]()
        else:
            node.op = _FLIPS[type(node.op)]()
        return ast.unparse(tree)

    def __str__(self) -> str:
        return f"{self.path}:{self.line} {self.kind} {self.detail} (col {self.col})"


def _function_nodes(tree: ast.AST) -> list[ast.AST]:
    """Every node inside a function body, each once, in ``ast.walk`` order.

    The order depends on the tree alone, so a node has the same index in a
    module and in its unparsed copy.
    """
    seen: dict[int, ast.AST] = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for stmt in func.body:
                for node in ast.walk(stmt):
                    seen.setdefault(id(node), node)
    return list(seen.values())


def _parent_lists(tree: ast.AST) -> dict[int, tuple[list, int]]:
    """The statement list holding each statement, and its index there."""
    return {id(stmt): (body, i) for node in ast.walk(tree)
            for _, body in ast.iter_fields(node) if isinstance(body, list)
            for i, stmt in enumerate(body) if isinstance(stmt, ast.stmt)}


def statement_mutants(path: str, source: str) -> list[Mutant]:
    tree = ast.parse(source)
    docstrings = {id(node.body[0]) for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                  and ast.get_docstring(node, clean=False) is not None}
    return [Mutant(path, node.lineno, node.col_offset, "statements", "pass", site)
            for site, node in enumerate(_function_nodes(tree))
            if isinstance(node, ast.stmt) and not isinstance(node, ast.Pass)
            and id(node) not in docstrings]


def operator_mutants(path: str, source: str) -> list[Mutant]:
    mutants = []

    def add(node: ast.AST, site: int, old: str, new: str, arg: int = 0) -> None:
        mutants.append(Mutant(path, node.lineno, node.col_offset, "operators",
                              f"{old} -> {new}", site, arg))

    for site, node in enumerate(_function_nodes(ast.parse(source))):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in _FLIPS:
            op, eq = type(node.op), "=" if isinstance(node, ast.AugAssign) else ""
            add(node, site, _SYMBOL[op] + eq, _SYMBOL[_FLIPS[op]] + eq)
        elif isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in _FLIPS:
                    add(node, site, _SYMBOL[type(op)], _SYMBOL[_FLIPS[type(op)]], i)
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float) \
                and node.value + 1 != node.value:   # not a float too large to move
            add(node, site, repr(node.value), repr(node.value + 1))
    return mutants


KINDS = {"statements": statement_mutants, "operators": operator_mutants}


def mutants_of(root: Path, files: list[str], kind: str) -> list[Mutant]:
    """Every mutant of ``kind`` in ``files``."""
    mutants = []
    for name in files:
        rel = Path(name).resolve().relative_to(root.resolve()).as_posix()
        mutants += sorted(KINDS[kind](rel, (root / rel).read_text()),
                          key=lambda m: (m.line, m.col))
    return mutants


def _run(cmd: list[str], cwd: Path, timeout: float) -> bool | None:
    """True if ``cmd`` passes, False if it fails, None if it times out."""
    env = {k: v for k, v in os.environ.items() if k != "H2GAP_DATA_DIR"}
    env["PYTHONPATH"] = str(cwd / "src")
    # no bytecode is written, so none of one mutant is loaded for the next
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL, start_new_session=True)
    try:
        return proc.wait(timeout=timeout) == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None


def _verdict(stages: list[list[str]], cwd: Path, timeouts: list[float]) -> str | None:
    """None if every stage passes, else what killed the mutant."""
    for i, (cmd, timeout) in enumerate(zip(stages, timeouts), 1):
        passed = _run(cmd, cwd, timeout)
        if passed is None:
            return f"timeout in stage {i}"
        if not passed:
            return f"stage {i}"
    return None


def run(root: Path, files: list[str], kind: str, stages: list[list[str]],
        log=sys.stderr) -> tuple[list[Mutant], list[Mutant]]:
    """(all mutants, survivors), each mutant run in a scratch copy of ``root``."""
    mutants = mutants_of(root, files, kind)
    print(f"{len(mutants)} {kind} mutants", file=log)
    # the baseline is the unparsed source, so a mutant differs from it in one node
    unparsed = {m.path: ast.unparse(ast.parse((root / m.path).read_text()))
                for m in mutants}
    with tempfile.TemporaryDirectory(prefix="mutate-") as tmp:
        copies: Queue[Path] = Queue()
        for i in range(JOBS):
            copy = Path(tmp) / f"copy{i}"
            shutil.copytree(root, copy, ignore=_IGNORE)
            for path, source in unparsed.items():
                (copy / path).write_text(source)
            copies.put(copy)
        baseline, timeouts = copies.get(), []
        for i, cmd in enumerate(stages, 1):
            began = time.perf_counter()
            if not _run(cmd, baseline, timeout=3600):
                raise SystemExit(f"the unmutated copy fails stage {i}: {shlex.join(cmd)}")
            timeouts.append(max(60.0, 5 * (time.perf_counter() - began)))
        copies.put(baseline)

        def one(k: int, mutant: Mutant) -> bool:
            copy = copies.get()
            target = copy / mutant.path
            try:
                target.write_text(mutant.apply(unparsed[mutant.path]))
                began = time.perf_counter()
                verdict = _verdict(stages, copy, timeouts)
            finally:
                target.write_text(unparsed[mutant.path])
                copies.put(copy)
            print(f"[{k + 1}/{len(mutants)}] {mutant}: "
                  f"{verdict or 'SURVIVED'} ({time.perf_counter() - began:.1f} s)",
                  file=log, flush=True)
            return verdict is None

        with ThreadPoolExecutor(max_workers=JOBS) as pool:
            alive = list(pool.map(one, range(len(mutants)), mutants))
    survivors = [m for m, a in zip(mutants, alive) if a]
    for path in dict.fromkeys(m.path for m in mutants):
        print(f"{path}: {sum(m.path == path for m in survivors)}/"
              f"{sum(m.path == path for m in mutants)} survived", file=log)
    return mutants, survivors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("files", nargs="+", help="source files to mutate")
    parser.add_argument("--kind", choices=sorted(KINDS), required=True)
    args = parser.parse_args(argv)
    _, survivors = run(ROOT, args.files, args.kind, list(DEFAULT_STAGES))
    for mutant in survivors:
        print(mutant)
    return 0


if __name__ == "__main__":
    sys.exit(main())
