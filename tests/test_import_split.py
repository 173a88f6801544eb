"""Each command and import loads exactly the modules its record lists.

``tests/golden/imports.json`` records, for 13 statements, every module that
``sys.modules`` gains when the statement runs in a fresh interpreter: the
seven commands on the bundled inputs, ``import h2gap`` and four of its
modules, and an export read as an attribute of the package. The record is
the import split: ``import h2gap`` loads no submodule, ``track`` no cost
module, the cost commands no project module, and no command loads
``typing``, ``pathlib``, ``tempfile`` or numpy. A change that adds or
removes an import fails here, naming the modules, until
``PYTHONPATH=src python tests/golden/regen.py`` records the new sets; the
change lists them.

Each statement runs in a child, because this test process has imported
everything already. The child runs ``python -I -S``. ``-S`` skips ``site``:
a ``.pth`` file in site-packages can import modules at start-up
(``typing``, ``pathlib``, ``re``, ``enum``), which would hide them from the
record. ``-I`` ignores every ``PYTHON*`` variable, the statement puts the
source directory on ``sys.path`` itself, and the child gets no
``H2GAP_DATA_DIR``. The stdlib's own imports change between Python
versions, so the record holds for the Python minor version and machine it
names, as the golden digests do.

Each statement runs once per test session: the record test and the named
checks below (the split stated rule by rule, and numpy's absence in
``tests/test_numpy_parity.py``) read the same 13 sets.
"""

import functools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import h2gap
from h2gap import fixtures
from test_golden import check_platform, platform_fields

IMPORT_FILE = Path(__file__).parent / "golden" / "imports.json"
SRC_DIR = str(Path(h2gap.__file__).resolve().parents[1])
DATA_DIR = os.path.join(SRC_DIR, "h2gap", "data", "fixtures")
SNAPSHOTS = ",".join(f"<DATA>/snap{v}.csv" for v in (2021, 2022, 2023))

# the statements, by test id; a command line runs h2gap.cli.main in process
STATEMENTS = {
    "lcoh": "h2gap lcoh --horizon 2050",
    "gap": "h2gap gap --carbon-pricing on",
    "ambition": "h2gap ambition",
    "track": f"h2gap track --snapshots {SNAPSHOTS} --target-year 2022",
    "subsidies": "h2gap subsidies --include-post2030",
    "support": "h2gap support --budget 308",
    "sweep": "h2gap sweep",
    "h2gap": "import h2gap",
    "h2gap.cli": "import h2gap.cli",
    "h2gap.units": "import h2gap.units",
    "h2gap.scenarios": "import h2gap.scenarios",
    "h2gap.fixtures": "import h2gap.fixtures",
    # a submodule and an export, each read as an attribute of the package
    "attribute": "import h2gap\ncosts = h2gap.costs\nassert h2gap.lcoh is costs.lcoh",
}


def modules_added_by(statement: str, tmp: Path) -> list[str]:
    """Modules ``statement`` adds to ``sys.modules`` in a fresh interpreter."""
    if statement.startswith("h2gap "):
        argv = [arg.replace("<DATA>", DATA_DIR) for arg in statement.split()[1:]]
        statement = (f"from h2gap.cli import main; "
                     f"assert main({[*argv, '--out', str(tmp / 'out')]!r}) == 0")
    code = (f"import sys; sys.path.insert(0, {SRC_DIR!r}); before = set(sys.modules)\n"
            f"{statement}\n"
            f"added = sorted(set(sys.modules) - before)\n"
            f"import json; print(json.dumps(added))\n")
    env = {key: value for key, value in os.environ.items()
           if key != fixtures.ENV_DATA_DIR}
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code], capture_output=True,
                          text=True, env=env, cwd=tmp, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@functools.cache
def loaded_by(statement: str) -> frozenset[str]:
    """``modules_added_by(statement)``, run once per process."""
    with tempfile.TemporaryDirectory() as tmp:
        return frozenset(modules_added_by(statement, Path(tmp)))


def _package(modules: frozenset[str]) -> set[str]:
    return {m for m in modules if m == "h2gap" or m.startswith("h2gap.")}


def record(tmp: Path) -> dict:
    return {**platform_fields(),
            "imports": {s: modules_added_by(s, tmp) for s in STATEMENTS.values()}}


@pytest.mark.parametrize("statement", STATEMENTS.values(), ids=list(STATEMENTS))
def test_statement_loads_the_recorded_modules(statement):
    recorded = json.loads(IMPORT_FILE.read_text())
    check_platform(recorded, IMPORT_FILE)
    loaded = loaded_by(statement)
    listed = set(recorded["imports"][statement])
    assert loaded == listed, (
        f"against the record, {statement!r} adds {sorted(loaded - listed)} and "
        f"drops {sorted(listed - loaded)}; a change that means this reruns "
        f"tests/golden/regen.py and lists the modules")


def test_star_import_gives_every_export_from_its_module():
    namespace = {}
    exec("from h2gap import *", namespace)
    exported = {name for name in namespace if name != "__builtins__"}
    assert exported == set(h2gap.__all__) and len(exported) == 37
    for name in exported:
        module = sys.modules[f"h2gap.{h2gap._MODULE_OF[name]}"]
        assert namespace[name] is getattr(module, name)


@pytest.mark.parametrize("statement, package", [
    (STATEMENTS["h2gap"], {"h2gap"}),
    (STATEMENTS["h2gap.cli"], {"h2gap", "h2gap.cli", "h2gap.units"}),
    (STATEMENTS["h2gap.units"], {"h2gap", "h2gap.units"}),
    (STATEMENTS["h2gap.scenarios"], {"h2gap", "h2gap.scenarios", "h2gap.units"}),
    (STATEMENTS["attribute"], {"h2gap", "h2gap.costs", "h2gap.units"}),
])
def test_import_loads_only_what_it_names(statement, package):
    assert _package(loaded_by(statement)) == package


@pytest.mark.parametrize("statement", [STATEMENTS["h2gap.cli"],
                                       STATEMENTS["h2gap.fixtures"]])
def test_paths_are_handled_without_pathlib(statement):
    assert "pathlib" not in loaded_by(statement)


@pytest.mark.parametrize("command", ["lcoh", "gap", "subsidies", "support", "sweep"])
def test_cost_commands_leave_the_project_side_unloaded(command):
    loaded = loaded_by(STATEMENTS[command])
    assert "h2gap.costs" in loaded
    assert "h2gap.projects" not in loaded


def test_track_leaves_the_cost_side_and_dataclasses_unloaded():
    loaded = loaded_by(STATEMENTS["track"])
    assert _package(loaded) == {"h2gap", "h2gap.cli", "h2gap.units",
                                "h2gap.projects"}
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize("command", ["lcoh", "gap", "ambition", "track",
                                     "subsidies", "support", "sweep"])
def test_only_the_subsidy_commands_load_dataclasses(command):
    loaded = loaded_by(STATEMENTS[command])
    if command in ("subsidies", "support", "sweep"):
        # SubsidySchedule stays a dataclass while bench/test_bench.py:120
        # copies one with dataclasses.replace
        assert {"dataclasses", "inspect"} <= loaded
    else:
        assert not loaded & {"dataclasses", "inspect"}
    assert not loaded & {"typing", "pathlib", "tempfile"}
    if command in ("lcoh", "gap"):
        # the per-year cost path, gas_cost included, is h2gap.costs alone
        assert "h2gap.subsidies" not in loaded


def test_ambition_leaves_the_cost_side_unloaded():
    # fixtures imports CapacityTrajectory only where it builds a pipeline
    assert _package(loaded_by(STATEMENTS["ambition"])) == {
        "h2gap", "h2gap.cli", "h2gap.units", "h2gap.fixtures", "h2gap.scenarios",
        "h2gap.projects"}
