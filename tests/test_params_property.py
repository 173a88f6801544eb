"""Property test: no parameter file makes a cost command raise or report nan/inf.

The bundled central parameter file is mutated: values become strings, ``null``,
lists, huge or tiny numbers, negative numbers or non-finite ones; series lose
their anchors or gain non-year and huge keys; keys go missing; or the whole
file stops being a JSON object. Each mutated file goes through ``lcoh``,
``gap``, ``subsidies`` and ``support`` at horizon 2100. Every run must exit 0,
2 or 3 without raising, and a report that was written must hold only finite
numbers.

Beside it, every key of ``ParamSet._schema`` is named: a file without it, or
with a list as its value, exits 2 with an error that names the key, and a
file without two neighbouring keys names the one the schema reads first.
"""

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from h2gap import fixtures
from h2gap.cli import main
from h2gap.costs import ParamSet

CENTRAL = json.loads(Path(fixtures.params_path("central")).read_text())
SERIES = sorted(k for k, v in CENTRAL.items() if isinstance(v, dict))
NUMBERS = sorted(k for k, v in CENTRAL.items() if isinstance(v, (int, float)))

# values any key may take, then the ones for numbers and for series; a number
# given as a string is parsed by float(), so "nan" and "1e309" are non-finite
WRONG_TYPES = [None, [1.0], [], True, "abc", {"a": 1}]
NUMBER_VALUES = [1e308, -1e308, 1e-300, -1e-300, 0.0, -1.0, float("nan"),
                 float("inf"), "nan", "1e309"]
SERIES_VALUES = [
    {},                                         # no anchor
    {"20x4": 1.0},                              # a key that is not a year
    {"2024": 1.0, "99999999999999999999": 2.0},  # a huge year
    {"99999999999999999999": 1.0},              # the only anchor far too late
    {"2024": 1e308, "2030": -1e308},
    {"2024": 1e-300},
    {"2024": -1.0},
    {"2024": "abc"},
    {"2024": None},
    {"2024": float("nan")},
    {"2024": "1e309"},
]
TOP_LEVEL = [[], [CENTRAL], "central", 1, None]

COMMANDS = [
    ["lcoh"],
    ["gap", "--carbon-pricing", "on"],
    ["subsidies", "--include-post2030"],
    ["support", "--budget", "308"],
]
NON_FINITE = re.compile(r"\b(nan|inf|infinity)\b", re.I)
MISSING = object()      # drawn in place of a value: the key is deleted


@st.composite
def parameter_files(draw):
    if draw(st.integers(0, 9), label="top level") == 0:
        return draw(st.sampled_from(TOP_LEVEL), label="not an object")
    raw = dict(CENTRAL)
    for _ in range(draw(st.integers(1, 2), label="mutations")):
        key = draw(st.sampled_from(sorted(CENTRAL)), label="key")
        values = SERIES_VALUES if key in SERIES else NUMBER_VALUES \
            if key in NUMBERS else []
        if not values or draw(st.booleans(), label="wrong type"):
            values = [*WRONG_TYPES, MISSING]
        value = draw(st.sampled_from(values), label="value")
        if value is MISSING:
            raw.pop(key, None)
        else:
            raw[key] = value
    return raw


@settings(max_examples=100)
@given(raw=parameter_files())
def test_no_parameter_file_raises_or_reports_non_finite(raw):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "params.json"
        path.write_text(json.dumps(raw))
        for command in COMMANDS:
            out = Path(tmp) / command[0]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = main([*command, "--params", str(path), "--horizon", "2100",
                             "--out", str(out)])
            assert code in (0, 2, 3), command
            assert (code == 0) == out.exists(), command
            for report in out.glob("*"):
                assert not NON_FINITE.search(report.read_text()), \
                    (command, report.name)


KEYS = [key for _, key, _ in ParamSet._schema]


def _lcoh_error(tmp_path, raw) -> str:
    """The error line of ``lcoh`` on a parameter file holding ``raw``."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps(raw))
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["lcoh", "--params", str(path), "--out", str(tmp_path / "out")])
    assert code == 2 and not (tmp_path / "out").exists()
    return err.getvalue()


@pytest.mark.parametrize("key", KEYS)
def test_a_missing_key_is_named(tmp_path, key):
    raw = {k: v for k, v in CENTRAL.items() if k != key}
    assert f"parameter file is missing key {key!r}\n" in _lcoh_error(tmp_path, raw)


@pytest.mark.parametrize("key", KEYS)
def test_a_list_value_names_its_key(tmp_path, key):
    error = _lcoh_error(tmp_path, {**CENTRAL, key: [1.0]})
    # a reader's error reads "key: ...", the constructor's check of
    # scenario_id "scenario_id must be a string, ..."
    assert re.search(rf"params\.json: {key}(: | must be a string)", error)


@pytest.mark.parametrize("first, second", zip(KEYS, KEYS[1:]))
def test_of_two_missing_keys_the_first_read_is_named(tmp_path, first, second):
    # neighbours in the schema, so the pairs together pin the whole order
    raw = {k: v for k, v in CENTRAL.items() if k not in (first, second)}
    assert f"missing key {first!r}\n" in _lcoh_error(tmp_path, raw)
