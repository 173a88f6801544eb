"""Property test: every drawn command line ends in a documented exit code.

A command is drawn from ``cli._COMMANDS``, and up to three of its declared
flags get an edge value; every other flag keeps its default, or the bundled
value where the command cannot run without it. The edge values are:

* years: 2019, 2023, 2024, 2100, 2101, -1, ``x`` and the empty string;
* amounts: 0, -0.0, 1e-300, 1e308, ``nan``, ``inf``, -5 and ``x``;
* choice flags: each choice and one bad value;
* ``--vintages``: well formed, reversed, malformed or of the wrong length;
* file flags: the bundled file, a missing path, a directory or an empty file
  (for ``--snapshots``, in one drawn position of the bundled three).

``main`` runs in process with ``--out`` in a temporary directory. It must
return 0, 2 or 3 without raising, write to stderr whenever it does not
return 0, and after a 0 no report may hold a ``nan`` or ``inf`` token. The
run with no edged flag exits 0 for every command, so each command, ``track``
included, succeeds in some examples; ``--hypothesis-show-statistics`` lists
the exit codes each command reached.
"""

import contextlib
import io
import re
import tempfile
from pathlib import Path

from hypothesis import event, given, settings
from hypothesis import strategies as st

from h2gap import cli, fixtures

YEARS = ["2019", "2023", "2024", "2100", "2101", "-1", "x", ""]
AMOUNTS = ["0", "-0.0", "1e-300", "1e308", "nan", "inf", "-5", "x"]
FILES = ["bundled", "missing", "directory", "empty"]
VINTAGES = ["2021,2022,2023", "2023,2022,2021", "2021,x,2023", "2021,2023", ""]
SNAPSHOTS = [fixtures.snapshot_path(v) for v in (2021, 2022, 2023)]
BUNDLED = {"--snapshot": fixtures.snapshot_path(2023),
           "--params": fixtures.params_path("central"),
           "--pipeline": fixtures.pipeline_path(),
           "--scenarios-file": fixtures.requirements_path()}
# the values of the flags a command cannot run without, where not edged
REQUIRED = {"--snapshots": ",".join(SNAPSHOTS), "--target-year": "2022",
            "--budget": "308"}
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.I)


def _edges(flag: str):
    """The strategy of ``flag``'s edge values, by the kind its spec declares."""
    spec = cli._FLAGS[flag]
    if "choices" in spec:
        return st.sampled_from([*spec["choices"], "bogus"])
    if spec.get("action") == "store_true":
        return st.just(None)
    if spec.get("type") in (int, cli._end_year):
        return st.sampled_from(YEARS)
    if spec.get("type") is cli._finite_float:
        return st.sampled_from(AMOUNTS)
    if flag == "--vintages":
        return st.sampled_from(VINTAGES)
    if flag == "--snapshots":
        return st.tuples(st.integers(0, len(SNAPSHOTS) - 1), st.sampled_from(FILES))
    assert flag in BUNDLED, flag
    return st.sampled_from(FILES)


@st.composite
def command_lines(draw):
    """A command and its ``(flag, value)`` pairs; a file value is still a kind
    from FILES, and a store_true flag's value is None."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    flags = [flag for flag in cli._COMMANDS[command][2] if flag != "--out"]
    edged = draw(st.permutations(flags))[:draw(st.integers(0, 3))]
    pairs = []
    for flag in flags:
        if flag in edged:
            pairs.append((flag, draw(_edges(flag), label=flag)))
        elif flag in REQUIRED:
            pairs.append((flag, REQUIRED[flag]))
    return command, pairs


def _argv(command: str, pairs: list, tmp: Path) -> list[str]:
    """The command line of a drawn one, its file values made paths under ``tmp``."""
    (tmp / "directory2022").mkdir()
    (tmp / "empty2022.csv").touch()
    files = {kind: str(tmp / name) for kind, name in [
        ("missing", "missing2022.csv"), ("directory", "directory2022"),
        ("empty", "empty2022.csv")]}
    argv = [command]
    for flag, value in pairs:
        if flag == "--snapshots" and isinstance(value, tuple):
            position, kind = value
            paths = list(SNAPSHOTS)
            paths[position] = files.get(kind, paths[position])
            value = ",".join(paths)
        elif flag in BUNDLED:
            value = files.get(value, BUNDLED[flag])
        argv += [flag] if value is None else [flag, value]
    return argv


@settings(max_examples=200)
@given(drawn=command_lines())
def test_every_command_line_ends_in_a_documented_exit_code(drawn):
    command, pairs = drawn
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [*_argv(command, pairs, Path(tmp)), "--out", str(out)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        event(f"{command} exit {code}")
        assert code in (0, 2, 3), argv
        if code:
            assert err.getvalue(), argv
        else:
            for report in out.iterdir():
                text = report.read_text(encoding="utf-8")
                assert not NON_FINITE.search(text), (argv, report.name)
