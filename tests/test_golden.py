"""Golden report corpus: every command line of a fixed grid gives recorded bytes.

Each grid line runs ``h2gap.cli.main`` in process. Its digest is one sha256
over the exit code, stdout, stderr and every report file (name and bytes).
Paths are written as placeholders, in the argv and in the captured text:
``<DATA>`` is the bundled fixture directory and ``<TMP>`` a temporary
directory that holds the input files below and ``--out``.

The digests live in ``tests/golden/digests.json`` together with the machine
they were recorded on: floats pass through libm, whose last bits may differ
elsewhere. A run on another machine fails, naming both. The record holds on
every supported Python, because every float total goes through
``units.fold_sum`` rather than ``sum``, whose rounding changed in 3.12;
``PYTHONPATH=src python tests/golden/regen.py --check`` compares the digests
under any interpreter without pytest, and ``tests/test_cross_python.py`` runs
it under the interpreters it is given. A change that alters report bytes on
purpose rewrites the file with ``PYTHONPATH=src python tests/golden/regen.py``
and lists the changed lines.

This module imports nothing outside the stdlib and h2gap, so that the check
runs where pytest is not installed.
"""

from __future__ import annotations

import codecs
import contextlib
import hashlib
import io
import json
import platform
import shutil
import sys
from pathlib import Path

from h2gap import fixtures
from h2gap.cli import main

DIGEST_FILE = Path(__file__).parent / "golden" / "digests.json"
USAGE_COLUMNS = "80"    # argparse wraps its usage lines to the terminal width

SNAPSHOT_HEADER = ("ref_id,name,country,region,status,launch_year,"
                   "capacity_mw_el,confidential\n")
PIPELINE_HEADER = "year,additions_gw,approximate\n"


def _bundled(name: str) -> bytes:
    return (Path(fixtures.data_dir()) / name).read_bytes()


def _params(**changes) -> bytes:
    raw = json.loads(_bundled("params_central.json"))
    raw.update(changes)
    return json.dumps(raw).encode()


def _pipeline_with(row: str) -> bytes:
    return _bundled("pipeline_additions.csv") + row.encode()


def _pipeline_through(last_year: int) -> bytes:
    """The bundled pipeline cut after ``last_year``."""
    lines = _bundled("pipeline_additions.csv").decode().splitlines(keepends=True)
    return "".join(line for line in lines
                   if not line[:4].isdigit() or int(line[:4]) <= last_year).encode()


# input files of the error lines, written under <TMP>
INPUTS = {
    "snap_bad_rows.csv": (SNAPSHOT_HEADER + "A,one,DEU,Europe,Concept,20x4,10,false\n"
                          "B,two,DEU,Europe,Mystery,2024,10,false\n"
                          "C,three,DEU,Europe,Concept,2024,nan,false\n"
                          "D,four,DEU,Europe,Concept,2024,10,maybe\n"
                          "D,four,DEU,Europe,Concept,2024,10,false\n"
                          "D,five,DEU,Europe,Concept,2024,10,false\n").encode(),
    "snap_missing_column.csv": b"ref_id,name,country,region,status,launch_year\n"
                               b"A,one,DEU,Europe,Concept,2024\n",
    "snap_latin1.csv": _bundled("snap2023.csv") + "Z,caf\xe9,1,1,1,1,1,1\n".encode("latin-1"),
    "snap2023_bom.csv": codecs.BOM_UTF8 + _bundled("snap2023.csv"),
    "reqs_bad_rows.csv": _bundled("scenario_requirements.csv")
    + b"Z,one,20x0,100,,false,false\nZ,two,2030,nan,,false,false\n",
    "reqs_missing_column.csv": b"source,scenario_name,year\nA,one,2030\n",
    "reqs_bom.csv": codecs.BOM_UTF8 + _bundled("scenario_requirements.csv"),
    "pipe_bad_rows.csv": _pipeline_with("2031,lots,true\n2030,5.0,true\n"),
    "pipe_nan.csv": _pipeline_with("2031,nan,true\n"),
    "pipe_inf.csv": _pipeline_with("2031,inf,true\n"),
    "pipe_negative.csv": _pipeline_with("2031,-1,true\n"),
    "pipe_zero_base.csv": (PIPELINE_HEADER + "2023,0,false\n2024,11.0,true\n").encode(),
    "pipe_nan_base.csv": (PIPELINE_HEADER + "2023,nan,false\n2024,11.0,true\n").encode(),
    "pipe_one_row.csv": (PIPELINE_HEADER + "2023,1.86,false\n").encode(),
    "pipe_missing_column.csv": b"year,approximate\n2023,false\n",
    "pipe_bom.csv": codecs.BOM_UTF8 + _bundled("pipeline_additions.csv"),
    "pipe_2027.csv": _pipeline_through(2027),
    "pipe_2035.csv": _pipeline_with("".join(f"{y},5.0,true\n" for y in range(2031, 2036))),
    "pipe_late_base.csv": (PIPELINE_HEADER + "2031,5\n2032,3\n").encode(),
    "pipe_2025_base.csv": (PIPELINE_HEADER + "2025,5\n2026,3\n2027,4\n").encode(),
    "pipe_early_additions.csv": (PIPELINE_HEADER + "2020,1.0\n2021,2.0\n").encode()
    + _bundled("pipeline_additions.csv").split(b"\n", 2)[2],     # its 2024-2030 rows
    "pipe_2030_huge.csv": _pipeline_through(2029) + b"2030,2000000,true\n",
    "pipe_overflow.csv": (PIPELINE_HEADER + "2023,1.86\n2024,11\n2028,1.7e308\n").encode(),
    "pipe_share_ulp.csv": (PIPELINE_HEADER + "2023,1.86\n2024,50.22385584334831\n"
                           + "".join(f"{y},0.001\n" for y in range(2025, 2029))
                           + "2029,0.1\n2030,0.001\n").encode(),
    "reqs_down.csv": _bundled("scenario_requirements.csv").split(b"\n")[0]
    + b"\nA,one,2030,500,,false\nA,one,2040,1000,,false\nA,one,2050,800,,false\n",
    "params_bom.json": codecs.BOM_UTF8 + _bundled("params_central.json"),
    "params_not_json.json": b"{not json",
    "params_missing_key.json": json.dumps(
        {k: v for k, v in json.loads(_bundled("params_central.json")).items()
         if k != "cost_of_capital"}).encode(),
    "params_nan.json": _params(cost_of_capital=float("nan")),
    "params_late_anchor.json": _params(gas_usd_per_mwh={"2030": 20.0}),
    "params_negative_fom.json": _params(fom_share_per_yr=-5),
    "params_negative_transport.json": _params(transport_storage_usd_per_mwh=-20),
    "params_negative_intensity.json": _params(gas_emission_intensity_t_per_mwh=-0.265),
    "params_negative_electricity.json": _params(
        electricity_usd_per_mwh={"2024": 60, "2030": -50}),
    "params_negative_gas.json": _params(gas_usd_per_mwh={"2024": -19}),
    "params_negative_co2.json": _params(co2_usd_per_t={"2024": -117}),
    "params_zero_prices.json": _params(electricity_usd_per_mwh={"2024": 0},
                                       co2_usd_per_t={"2024": 0}),
    "params_negative_zero.json": _params(electricity_usd_per_mwh={"2024": -0.0},
                                         transport_storage_usd_per_mwh=-0.0),
    "params_dict_scenario.json": _params(scenario_id={"a": 1}),
    "params_number_scenario.json": _params(scenario_id=7),
    "params_boolean.json": _params(full_load_hours=True),
    "params_series_value.json": _params(efficiency_lhv={"2024": "abc"}),
    "params_series_key.json": _params(gas_usd_per_mwh={"20x4": 20.0}),
    "params_list.json": json.dumps([json.loads(_bundled("params_central.json"))]).encode(),
    "params_series_year_twice.json": _params(gas_usd_per_mwh={"2024": 19.0, "02024": 500.0}),
    "params_key_twice.json": _params()[:-1] + b', "full_load_hours": 5000}',
    # a 2022-cohort project grows between vintages, one shrinks
    "snap_grow_2021.csv": (SNAPSHOT_HEADER + "A,one,DEU,Europe,Concept,2022,100,false\n"
                           "B,two,DEU,Europe,FID,2022,200,false\n").encode(),
    "snap_grow_2022.csv": (SNAPSHOT_HEADER + "A,one,DEU,Europe,FID,2022,150,false\n"
                           "B,two,DEU,Europe,Operational,2022,120,false\n").encode(),
    "blocker": b"",
}

SCENARIOS = ("central", "progressive", "conservative")
HORIZONS = ("2030", "2045", "2060", "2100")
FORMATS = ("csv", "json")
SNAPS = {v: f"<DATA>/snap{v}.csv" for v in (2021, 2022, 2023)}


def _grid() -> list[list[str]]:
    lines = []
    for fmt in FORMATS:
        for scenario in SCENARIOS:
            for carbon in ("off", "on"):
                common = ["--scenario", scenario, "--carbon-pricing", carbon,
                          "--format", fmt]
                for horizon in HORIZONS:
                    lines.append(["lcoh", *common, "--horizon", horizon])
                    lines.append(["gap", *common, "--horizon", horizon])
                    lines.append(["subsidies", *common, "--horizon", horizon])
                    lines.append(["subsidies", *common, "--horizon", horizon,
                                  "--include-post2030"])
                for allocation in ("chronological", "uniform"):
                    for budget in ("0", "100", "308", "2000"):
                        lines.append(["support", *common, "--budget", budget,
                                      "--allocation", allocation])
        for horizon in HORIZONS:
            lines.append(["sweep", "--format", fmt, "--horizon", horizon])
        for year in ("2030", "2040", "2050"):
            for exclude in ("true", "false"):
                lines.append(["ambition", "--year", year, "--exclude-outliers",
                              exclude, "--format", fmt])
        for vintages in ((2021, 2022), (2022, 2023), (2021, 2023), (2021, 2022, 2023)):
            for target in ("2021", "2022", "2023"):
                lines.append(["track", "--snapshots",
                              ",".join(SNAPS[v] for v in vintages),
                              "--target-year", target, "--format", fmt])
    return lines + ERROR_LINES


ERROR_LINES = [
    # bad rows (exit 3) and bad files (exit 2), one input CSV at a time
    ["track", "--snapshots", f"{SNAPS[2021]},<TMP>/snap_bad_rows.csv", "--target-year", "2021",
     "--vintages", "2021,2022"],
    ["track", "--snapshots", f"{SNAPS[2021]},<TMP>/snap_missing_column.csv",
     "--target-year", "2021", "--vintages", "2021,2022"],
    ["track", "--snapshots", f"{SNAPS[2021]},<TMP>/snap_latin1.csv", "--target-year", "2021",
     "--vintages", "2021,2023"],
    ["track", "--snapshots", f"{SNAPS[2021]},{SNAPS[2022]},<TMP>/snap2023_bom.csv",
     "--target-year", "2022"],
    ["ambition", "--snapshot", "<TMP>/snap_bad_rows.csv"],
    ["ambition", "--snapshot", "<TMP>/snap2023_bom.csv"],
    ["ambition", "--scenarios-file", "<TMP>/reqs_bad_rows.csv"],
    ["ambition", "--scenarios-file", "<TMP>/reqs_missing_column.csv"],
    ["ambition", "--scenarios-file", "<TMP>/reqs_bom.csv", "--year", "2050"],
    *(["lcoh", "--pipeline", f"<TMP>/{name}.csv"]
      for name in ("pipe_bad_rows", "pipe_nan", "pipe_inf", "pipe_negative",
                   "pipe_zero_base", "pipe_nan_base", "pipe_one_row",
                   "pipe_missing_column", "pipe_bom")),
    ["subsidies", "--pipeline", "<TMP>/pipe_negative.csv"],
    # an installed base after 2024 leaves the cost path's first years without one
    ["lcoh", "--pipeline", "<TMP>/pipe_late_base.csv"],
    ["support", "--budget", "308", "--pipeline", "<TMP>/pipe_late_base.csv"],
    ["subsidies", "--policy-mt", "0", "--pipeline", "<TMP>/pipe_2025_base.csv"],
    # additions before 2024 have no LCOH: a row error, whichever command reads them
    ["lcoh", "--pipeline", "<TMP>/pipe_early_additions.csv"],
    ["subsidies", "--pipeline", "<TMP>/pipe_early_additions.csv"],
    ["support", "--budget", "300", "--pipeline", "<TMP>/pipe_early_additions.csv"],
    # the post-2030 median continuation
    ["lcoh", "--pipeline", "<TMP>/pipe_2035.csv", "--horizon", "2040"],
    ["lcoh", "--pipeline", "<TMP>/pipe_2027.csv", "--horizon", "2029"],
    ["lcoh", "--pipeline", "<TMP>/pipe_2027.csv", "--horizon", "2040"],
    ["lcoh", "--scenarios-file", "<TMP>/reqs_down.csv", "--horizon", "2060"],
    ["lcoh", "--pipeline", "<TMP>/pipe_2030_huge.csv"],
    ["sweep", "--horizon", "2030", "--scenarios-file", "<TMP>/absent.csv"],
    ["subsidies", "--include-post2030", "--horizon", "2030",
     "--scenarios-file", "<TMP>/absent.csv"],
    ["lcoh", "--horizon", "2030", "--scenarios-file", "<TMP>/absent.csv"],
    # the support summary's year is the pipeline's last build year
    ["support", "--budget", "5000", "--pipeline", "<TMP>/pipe_2035.csv"],
    # the policy volume's share of a huge addition overflows
    ["subsidies", "--pipeline", "<TMP>/pipe_overflow.csv"],
    ["support", "--budget", "1", "--pipeline", "<TMP>/pipe_overflow.csv"],
    ["sweep", "--horizon", "2030", "--pipeline", "<TMP>/pipe_overflow.csv"],
    # a policy share whose product rounds one ulp above its addition
    ["support", "--budget", "0", "--policy-mt", "4.020419402427688",
     "--pipeline", "<TMP>/pipe_share_ulp.csv"],
    # parameter files
    *(["lcoh", "--params", f"<TMP>/{name}.json"]
      for name in ("params_bom", "params_not_json", "params_missing_key", "params_nan",
                   "params_late_anchor", "params_negative_fom",
                   "params_negative_transport", "params_negative_intensity",
                   "params_negative_electricity", "params_negative_gas",
                   "params_negative_co2", "params_zero_prices", "params_negative_zero",
                   "params_dict_scenario", "params_number_scenario",
                   "params_boolean", "params_series_value", "params_series_key",
                   "params_list", "params_series_year_twice", "params_key_twice")),
    ["gap", "--carbon-pricing", "on", "--params", "<TMP>/params_negative_co2.json"],
    ["subsidies", "--params", "<TMP>/params_dict_scenario.json"],
    ["support", "--budget", "308", "--params", "<TMP>/params_zero_prices.json"],
    ["lcoh", "--params", "<TMP>/absent.json"],
    # flag errors
    [],
    ["bogus"],
    ["lcoh", "--scenario", "bogus"],
    ["lcoh", "--horizon", "2023"],
    ["lcoh", "--horizon", "2101"],
    ["lcoh", "--horizon", "soon"],
    ["subsidies", "--horizon", "2101"],
    ["support"],
    ["support", "--budget", "nan"],
    ["support", "--budget", "-1"],
    ["support", "--budget", "-0.0"],
    ["support", "--budget", "lots"],
    ["lcoh", "--policy-mt", "inf"],
    ["subsidies", "--policy-mt", "inf"],
    ["sweep", "--params", "<TMP>/params_bom.json"],
    # each command's usage text pins the flags it takes
    *([command, "--format", "xml"] for command in ("track", "ambition", "gap",
                                                    "subsidies", "sweep")),
    # the help texts, and an unknown flag before the command
    ["--help"],
    *([command, "--help"] for command in ("track", "ambition", "lcoh", "gap",
                                          "subsidies", "support", "sweep")),
    ["--bogus", "lcoh", "--horizon", "2030"],
    ["lcoh", "--out", "<TMP>/blocker/out"],
    ["track", "--snapshots", SNAPS[2021], "--target-year", "2021"],
    ["track", "--snapshots", f"{SNAPS[2021]},{SNAPS[2022]}", "--target-year", "2024"],
    ["track", "--snapshots", f"{SNAPS[2022]},{SNAPS[2021]}", "--target-year", "2021"],
    ["track", "--snapshots", f"{SNAPS[2021]},{SNAPS[2022]}", "--target-year", "2021",
     "--vintages", "2021"],
    ["track", "--snapshots", f"{SNAPS[2021]},{SNAPS[2022]}", "--target-year", "2021",
     "--vintages", "x,y"],
    ["track", "--snapshots", f"{SNAPS[2021]},<TMP>/absent.csv", "--target-year", "2021",
     "--vintages", "2021,2022"],
    ["track", "--snapshots", f"{SNAPS[2021]},<TMP>/nodigits.csv", "--target-year", "2021"],
    ["ambition", "--year", "2035"],
    ["ambition", "--snapshot", "<TMP>/absent.csv"],
    # a file is named in messages as typed: a "." segment, a doubled slash and
    # a trailing slash after a file name
    ["lcoh", "--params", "<TMP>/./absent.json"],
    ["ambition", "--snapshot", "<TMP>//snap2023_bom.csv"],
    ["lcoh", "--params", "<TMP>/params_bom.json/"],
    ["track", "--snapshots", f"{SNAPS[2021]}/,{SNAPS[2022]}", "--target-year", "2021"],
    # capacity_increased flows, which the bundled snapshots never book
    *(["track", "--snapshots", "<TMP>/snap_grow_2021.csv,<TMP>/snap_grow_2022.csv",
       "--target-year", "2022", "--format", fmt] for fmt in FORMATS),
]


def _digest(argv: list[str], tmp: Path) -> str:
    """Run one grid line with ``<TMP>`` inputs under ``tmp``; sha256 of what it produced."""
    out = tmp / "out"
    places = {"<TMP>": str(tmp), "<DATA>": str(fixtures.data_dir())}
    full = []
    for arg in argv:
        for mark, path in places.items():
            arg = arg.replace(mark, path)
        full.append(arg)
    if argv and "--out" not in argv:
        full += ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(full)
    h = hashlib.sha256(f"exit {code}\n".encode())
    for name, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue())):
        for mark, path in places.items():
            text = text.replace(path, mark)
        h.update(f"{name} {len(text)}\n{text}".encode())
    if out.is_dir():
        for path in sorted(out.iterdir()):
            data = path.read_bytes()
            h.update(f"file {path.name} {len(data)}\n".encode() + data)
        shutil.rmtree(out)
    return h.hexdigest()


def machine_field() -> dict[str, str]:
    """The pin of the digest record: report bytes hold per machine."""
    return {"machine": platform.machine()}


def platform_fields() -> dict[str, str]:
    """The pins of the import record: the stdlib's own imports change between
    Python minor versions."""
    return {"python": "%d.%d" % sys.version_info[:2], **machine_field()}


def check_platform(recorded: dict, record_file: Path, fields: dict[str, str]) -> None:
    """Fail, naming both platforms, unless ``recorded`` was made on this one,
    as far as ``fields`` pin it."""
    for field, value in fields.items():
        assert recorded[field] == value, (
            f"{record_file.name} was recorded on {field} {recorded[field]}, this "
            f"run is on {value}: run it on the recorded platform or record one for "
            f"this platform with tests/golden/regen.py")


def digests(tmp: Path) -> dict[str, str]:
    """Digest of every grid line, keyed by its argv; the input files go under ``tmp``."""
    for name, data in INPUTS.items():
        (tmp / name).write_bytes(data)
    return {" ".join(argv): _digest(argv, tmp) for argv in _grid()}


def record(tmp: Path) -> dict:
    return {**machine_field(), "digests": digests(tmp)}


def changed_lines(old: dict[str, str], current: dict[str, str]) -> list[str]:
    """The command lines whose digest differs, or that only one side has."""
    return [key for key in {**old, **current} if old.get(key) != current.get(key)]


def test_report_bytes_match_the_golden_corpus(tmp_path, monkeypatch):
    monkeypatch.delenv(fixtures.ENV_DATA_DIR, raising=False)
    monkeypatch.setenv("COLUMNS", USAGE_COLUMNS)
    recorded = json.loads(DIGEST_FILE.read_text())
    check_platform(recorded, DIGEST_FILE, machine_field())
    current = digests(tmp_path)
    changed = changed_lines(recorded["digests"], current)
    assert not changed, (f"{len(changed)} of {len(current)} command lines changed:\n"
                         + "\n".join(changed))
