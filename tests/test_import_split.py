"""Each command imports only the side of the package it uses.

``import h2gap`` loads no submodule; its exports are resolved lazily.
``import h2gap.cli`` loads the stdlib and ``h2gap.units`` only, and
``import h2gap.scenarios`` adds no cost-side module. The five cost
commands never load the project side, and ``track`` and ``ambition`` never
the cost side. No command loads ``typing``, ``pathlib`` or ``tempfile``
(each report goes to a hidden file that the CLI names itself), and
``import h2gap.cli`` and ``import h2gap.fixtures`` load neither of the
first two; ``lcoh``, ``gap``, ``ambition`` and ``track`` load neither
``dataclasses`` nor ``inspect`` either.

Each check runs in a fresh interpreter, because this test process has
imported everything already; only the modules loaded after the
interpreter's own start-up count. That interpreter runs with ``-S``: a
``.pth`` file in site-packages can import modules at start-up (``typing``,
``pathlib``, ``re``, ``enum``), which would hide them from the check.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import h2gap
from h2gap import fixtures

SRC_DIR = Path(h2gap.__file__).resolve().parents[1]
SNAPSHOTS = ",".join(str(fixtures.snapshot_path(v)) for v in (2021, 2022, 2023))


def _modules_loaded_by(statement: str, tmp_path: Path) -> set[str]:
    """Names added to ``sys.modules`` by ``statement`` in a fresh interpreter."""
    listing = tmp_path / "modules.json"
    code = (f"import sys\nbefore = set(sys.modules)\n{statement}\n"
            f"new = sorted(set(sys.modules) - before)\n"
            f"import json\nopen({str(listing)!r}, 'w').write(json.dumps(new))\n")
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(listing.read_text()))


def _package(modules: set[str]) -> set[str]:
    return {m for m in modules if m == "h2gap" or m.startswith("h2gap.")}


def _run(argv: list[str], tmp_path: Path) -> str:
    return (f"from h2gap.cli import main\n"
            f"assert main({[*argv, '--out', str(tmp_path / 'out')]!r}) == 0")


@pytest.mark.parametrize("statement, package", [
    ("import h2gap", {"h2gap"}),
    ("import h2gap.cli", {"h2gap", "h2gap.cli", "h2gap.units"}),
    ("import h2gap.units", {"h2gap", "h2gap.units"}),
    ("import h2gap.scenarios", {"h2gap", "h2gap.scenarios", "h2gap.units"}),
    # a submodule and an export, each read as an attribute of the package
    ("import h2gap\ncosts = h2gap.costs\nassert h2gap.lcoh is costs.lcoh",
     {"h2gap", "h2gap.costs", "h2gap.units"}),
])
def test_import_loads_only_what_it_names(tmp_path, statement, package):
    assert _package(_modules_loaded_by(statement, tmp_path)) == package


@pytest.mark.parametrize("statement", ["import h2gap.cli", "import h2gap.fixtures"])
def test_paths_are_handled_without_pathlib(tmp_path, statement):
    assert "pathlib" not in _modules_loaded_by(statement, tmp_path)


def test_star_import_gives_every_export_from_its_module():
    namespace = {}
    exec("from h2gap import *", namespace)
    exported = {name for name in namespace if name != "__builtins__"}
    assert exported == set(h2gap.__all__) and len(exported) == 37
    for name in exported:
        module = sys.modules[f"h2gap.{h2gap._MODULE_OF[name]}"]
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("argv", [
    ["lcoh", "--horizon", "2050"],
    ["gap", "--carbon-pricing", "on"],
    ["subsidies", "--include-post2030"],
    ["support", "--budget", "308"],
    ["sweep"],
], ids=lambda argv: argv[0])
def test_cost_commands_leave_the_project_side_unloaded(tmp_path, argv):
    loaded = _modules_loaded_by(_run(argv, tmp_path), tmp_path)
    assert "h2gap.costs" in loaded
    assert "h2gap.projects" not in loaded


def test_track_leaves_the_cost_side_and_dataclasses_unloaded(tmp_path):
    argv = ["track", "--snapshots", SNAPSHOTS, "--target-year", "2022"]
    loaded = _modules_loaded_by(_run(argv, tmp_path), tmp_path)
    assert _package(loaded) == {"h2gap", "h2gap.cli", "h2gap.units",
                                "h2gap.projects"}
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv", [
    ["lcoh", "--horizon", "2050"],
    ["gap", "--carbon-pricing", "on"],
    ["ambition"],
    ["track", "--snapshots", SNAPSHOTS, "--target-year", "2022"],
    ["subsidies", "--include-post2030"],
    ["support", "--budget", "308"],
    ["sweep"],
], ids=lambda argv: argv[0])
def test_only_the_subsidy_commands_load_dataclasses(tmp_path, argv):
    loaded = _modules_loaded_by(_run(argv, tmp_path), tmp_path)
    if argv[0] in ("subsidies", "support", "sweep"):
        # SubsidySchedule stays a dataclass while bench/test_bench.py:120
        # copies one with dataclasses.replace
        assert {"dataclasses", "inspect"} <= loaded
    else:
        assert not loaded & {"dataclasses", "inspect"}
    assert not loaded & {"typing", "pathlib", "tempfile"}
    if argv[0] in ("lcoh", "gap"):
        # the per-year cost path, gas_cost included, is h2gap.costs alone
        assert "h2gap.subsidies" not in loaded


def test_ambition_leaves_the_cost_side_unloaded(tmp_path):
    # fixtures imports CapacityTrajectory only where it builds a pipeline
    loaded = _modules_loaded_by(_run(["ambition"], tmp_path), tmp_path)
    assert _package(loaded) == {"h2gap", "h2gap.cli", "h2gap.units",
                                "h2gap.fixtures", "h2gap.scenarios",
                                "h2gap.projects"}
