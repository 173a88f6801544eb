import codecs
import csv
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from h2gap import Status, cli, fixtures, track
from h2gap.cli import main

SNAPSHOT_ARGS = ",".join(str(fixtures.snapshot_path(v)) for v in (2021, 2022, 2023))
# the flags a command cannot run without
REQUIRED = {"track": ["--snapshots", SNAPSHOT_ARGS, "--target-year", "2022"],
            "support": ["--budget", "308"]}
README = Path(__file__).resolve().parents[1] / "README.md"


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# track
# ---------------------------------------------------------------------------

def test_track_writes_reports_and_summary(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022",
                 "--out", str(out)])
    assert code == 0
    text = capsys.readouterr().out
    assert "2.0%" in text and "28.0%" in text and "70.0%" in text
    for name in ("transitions", "fate_rates", "sankey_nodes", "sankey_flows"):
        assert (out / f"{name}.csv").is_file()
    fates = {r["ref_id"]: r["fate"] for r in _read_csv(out / "transitions.csv")}
    assert fates["GH-0003"] == "success"


def test_track_missing_file_exits_2_without_outputs(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["track", "--snapshots", "nope.csv,also_nope.csv",
                 "--target-year", "2022", "--out", str(out)])
    assert code == 2
    assert not out.exists()


def test_track_bad_rows_exit_3_with_diagnostics(tmp_path, capsys):
    bad = tmp_path / "bad2021.csv"
    bad.write_text("ref_id,name,country,region,status,launch_year,"
                   "capacity_mw_el,confidential\n"
                   "A,x,DEU,Europe,Concept,2022,not_a_number,false\n")
    code = main(["track", "--snapshots", f"{bad},{fixtures.snapshot_path(2023)}",
                 "--target-year", "2022", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("capacity", ["nan", "inf"])
def test_non_finite_snapshot_capacity_exits_3_without_reports(tmp_path, capsys,
                                                              capacity):
    snap = tmp_path / "snap2021.csv"
    snap.write_text(Path(fixtures.snapshot_path(2021)).read_text()
                    + f"ZZ-NAN,x,DEU,Europe,Concept,2022,{capacity},false\n")
    out = tmp_path / "out"
    code = main(["track", "--snapshots",
                 f"{snap},{fixtures.snapshot_path(2022)},{fixtures.snapshot_path(2023)}",
                 "--target-year", "2022", "--out", str(out)])
    assert code == 3
    assert f"line 13: capacity must be finite, got {capacity}" in capsys.readouterr().err
    assert not out.exists()
    assert main(["ambition", "--snapshot", str(snap), "--out", str(out)]) == 3
    assert "line 13: capacity must be finite" in capsys.readouterr().err
    assert not out.exists()


def test_track_error_lines_are_physical_lines(tmp_path, capsys):
    # a blank line and a quoted name spanning two lines put the bad row on line 6
    bad = tmp_path / "lines2021.csv"
    bad.write_text("ref_id,name,country,region,status,launch_year,"
                   "capacity_mw_el,confidential\n"
                   "A,one,DEU,Europe,Concept,2022,10,false\n"
                   "\n"
                   'B,"two\nlines",DEU,Europe,Concept,2022,10,false\n'
                   "C,three,DEU,Europe,Mystery,2022,10,false\n")
    code = main(["track", "--snapshots", f"{bad},{fixtures.snapshot_path(2023)}",
                 "--target-year", "2022", "--out", str(tmp_path / "out")])
    assert code == 3
    assert "line 6: unknown status 'Mystery'" in capsys.readouterr().err


def test_track_schema_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "cols2021.csv"
    bad.write_text("ref_id,name\nA,x\n")
    code = main(["track", "--snapshots", f"{bad},{fixtures.snapshot_path(2023)}",
                 "--target-year", "2022", "--out", str(tmp_path / "out")])
    assert code == 2


def test_track_non_integer_vintage_is_usage_error(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022",
                 "--vintages", "2021,x,2023", "--out", str(out)])
    assert code == 2
    assert "--vintages" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("years, target, message", [
    ((2023, 2022, 2021), "2022", "oldest first"),
    ((2021, 2022, 2023), "2030", "after the last vintage 2023"),
])
def test_track_flag_mismatch_exits_2_before_loading(tmp_path, capsys, monkeypatch,
                                                    years, target, message):
    def no_load(*args, **kwargs):
        raise AssertionError("a snapshot was read")

    monkeypatch.setattr("h2gap.projects.load_snapshot", no_load)
    out = tmp_path / "out"
    snapshots = ",".join(str(fixtures.snapshot_path(v)) for v in years)
    code = main(["track", "--snapshots", snapshots, "--target-year", target,
                 "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_track_middle_vintages_are_sankey_stages_only(tmp_path, monkeypatch):
    reports = []

    def recording_track(*args, **kwargs):
        reports.append(track(*args, **kwargs))
        return reports[-1]

    monkeypatch.setattr("h2gap.projects.track", recording_track)
    snap = {v: str(fixtures.snapshot_path(v)) for v in (2021, 2022, 2023)}
    runs = {"two": (snap[2021], snap[2023]),
            "three": (snap[2021], snap[2022], snap[2023]),
            # the third file repeats the 2021 data as a second 2022 vintage
            "four": (snap[2021], snap[2022], snap[2021], snap[2023])}
    for name, files in runs.items():
        vintages = {"four": ["--vintages", "2021,2022,2022,2023"]}.get(name, [])
        assert main(["track", "--snapshots", ",".join(files), *vintages,
                     "--target-year", "2022", "--out", str(tmp_path / name)]) == 0
    for report in reports:
        assert (report.earlier_vintage, report.final_vintage) == (2021, 2023)
        assert report.announced_mw == 5000.0
    # only the first and the last vintage decide the fate reports
    for name in ("transitions", "fate_rates"):
        three = (tmp_path / "three" / f"{name}.csv").read_bytes()
        assert (tmp_path / "two" / f"{name}.csv").read_bytes() == three
        assert (tmp_path / "four" / f"{name}.csv").read_bytes() == three
    nodes = _read_csv(tmp_path / "four" / "sankey_nodes.csv")
    assert sorted({(int(r["stage"]), r["stage_label"]) for r in nodes}) == [
        (0, "2021"), (1, "2022"), (2, "2022"), (3, "2023"), (4, "outcome")]
    # the 2022 vintage's expectation of the cohort is its stage's status nodes
    statuses = {status.value for status in Status}
    stage1 = sum(float(r["capacity_gw"]) for r in nodes
                 if r["stage"] == "1" and r["node"] in statuses)
    assert stage1 * 1000.0 == pytest.approx(3000.0)


def test_track_json_and_csv_carry_identical_values(tmp_path):
    out_csv, out_json = tmp_path / "c", tmp_path / "j"
    assert main(["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022",
                 "--out", str(out_csv)]) == 0
    assert main(["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022",
                 "--format", "json", "--out", str(out_json)]) == 0
    rows_csv = _read_csv(out_csv / "transitions.csv")
    rows_json = json.loads((out_json / "transitions.json").read_text())
    assert len(rows_csv) == len(rows_json)
    for rc, rj in zip(rows_csv, rows_json):
        assert rc["ref_id"] == rj["ref_id"]
        assert float(rc["capacity_mw"]) == pytest.approx(rj["capacity_mw"])


SNAPSHOT_HEADER = ("ref_id,name,country,region,status,launch_year,"
                   "capacity_mw_el,confidential\n")


@pytest.mark.parametrize("final_b", ["Concept,2024", "Operational,2022"],
                         ids=["one_delayed", "both_succeed"])
def test_track_overflowing_cohort_exits_3_without_reports(tmp_path, capsys, final_b):
    # each 1e308 MW row is finite and passes the loader, but their sum is inf
    early, final = tmp_path / "snap2021.csv", tmp_path / "snap2023.csv"
    early.write_text(SNAPSHOT_HEADER + "A,a,DEU,Europe,Concept,2022,1e308,false\n"
                     "B,b,DEU,Europe,Concept,2022,1e308,false\n")
    final.write_text(SNAPSHOT_HEADER + "A,a,DEU,Europe,Operational,2022,1e308,false\n"
                     f"B,b,DEU,Europe,{final_b},1e308,false\n")
    out = tmp_path / "out"
    assert main(["track", "--snapshots", f"{early},{final}", "--target-year", "2022",
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "error: announced capacity overflows when summed" in captured.err
    assert not re.search(r"\b(nan|inf)\b", captured.out, re.I)
    assert not out.exists()


def test_track_summary_gives_the_cohort_in_gw(tmp_path, capsys):
    early, final = tmp_path / "snap2021.csv", tmp_path / "snap2023.csv"
    early.write_text(SNAPSHOT_HEADER + "A,a,DEU,Europe,Concept,2022,1500,false\n"
                     "B,b,DEU,Europe,Concept,2022,1000,false\n")
    final.write_text(SNAPSHOT_HEADER + "A,a,DEU,Europe,Operational,2022,1500,false\n"
                     "B,b,DEU,Europe,Concept,2024,1000,false\n")
    assert main(["track", "--snapshots", f"{early},{final}", "--target-year", "2022",
                 "--out", str(tmp_path / "out")]) == 0
    assert ("cohort 2022: announced 2.500 GW (vintage 2021), realised on time "
            "1.500 GW\n") in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_track_non_finite_last_report_writes_no_report(tmp_path, capsys, monkeypatch,
                                                       fmt):
    import h2gap.projects

    real = h2gap.projects.sankey_flows

    def nan_last_flow(*args):
        data = real(*args)
        last = data.flows[-1]._replace(capacity_gw=float("nan"))
        return data._replace(flows=(*data.flows[:-1], last))

    monkeypatch.setattr(h2gap.projects, "sankey_flows", nan_last_flow)
    out = tmp_path / "out"
    assert main(["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022",
                 "--format", fmt, "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"sankey_flows.{fmt}: column 'capacity_gw' is not finite" in captured.err
    assert "cohort 2022" not in captured.out
    assert not out.exists()   # the three reports before it are not written either


def _tree_bytes(root: Path) -> dict[str, bytes | None]:
    """Every entry under ``root`` by relative path: a file's bytes, a directory None."""
    tree = {}
    for dirpath, dirnames, filenames in os.walk(root):
        for name in dirnames:
            tree[os.path.relpath(os.path.join(dirpath, name), root)] = None
        for name in filenames:
            path = os.path.join(dirpath, name)
            tree[os.path.relpath(path, root)] = Path(path).read_bytes()
    return tree


TRACK_2022 = ["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022"]
# a run whose four reports differ from TRACK_2022's
TRACK_2021 = ["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2021"]


def test_directory_in_place_of_a_report_leaves_the_earlier_set(tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*TRACK_2022, "--out", str(out)]) == 0
    (out / "fate_rates.csv").unlink()
    (out / "fate_rates.csv").mkdir()
    (out / "fate_rates.csv" / "keep.txt").write_text("x")
    before = _tree_bytes(out)
    capsys.readouterr()
    assert main([*TRACK_2021, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: [Errno 21] Is a directory: "
                            f"{str(out / 'fate_rates.csv')!r}\n")
    assert captured.out == ""
    assert _tree_bytes(out) == before


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_failed_report_write_leaves_out_unchanged(tmp_path, capsys, monkeypatch, fmt):
    out = tmp_path / "out"
    assert main([*TRACK_2022, "--format", fmt, "--out", str(out)]) == 0
    before = _tree_bytes(out)
    assert len(before) == 4
    real = cli._write_rows
    written = []

    def third_write_fails(fh, rows, fmt):
        written.append(fh.name)
        if len(written) == 3:
            fh.write("partial")
            raise OSError(28, "No space left on device")
        real(fh, rows, fmt)

    monkeypatch.setattr(cli, "_write_rows", third_write_fails)
    capsys.readouterr()
    assert main([*TRACK_2021, "--format", fmt, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: [Errno 28] No space left on device\n"
    assert [os.path.basename(name) for name in written] \
        == [f".{name}.{fmt}.{os.getpid()}.tmp"
            for name in ("transitions", "fate_rates", "sankey_nodes")]
    assert _tree_bytes(out) == before   # no hidden file is left either


# ---------------------------------------------------------------------------
# gap / lcoh
# ---------------------------------------------------------------------------

def test_gap_central_without_carbon(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["gap", "--scenario", "central", "--carbon-pricing", "off",
                 "--horizon", "2045", "--out", str(out)])
    assert code == 0
    rows = {int(r["year"]): r for r in _read_csv(out / "gap.csv")}
    assert float(rows[2030]["gap"]) == pytest.approx(107.0, abs=2.0)
    assert "none through 2045" in capsys.readouterr().out


def test_gap_central_with_carbon(tmp_path):
    out = tmp_path / "out"
    assert main(["gap", "--carbon-pricing", "on", "--horizon", "2045",
                 "--out", str(out)]) == 0
    rows = {int(r["year"]): r for r in _read_csv(out / "gap.csv")}
    assert float(rows[2030]["gap"]) == pytest.approx(68.0, abs=2.0)
    assert float(rows[2030]["gas_total"]) == pytest.approx(61.5, abs=0.1)


def test_gap_single_row_horizon(tmp_path):
    out = tmp_path / "out"
    assert main(["gap", "--horizon", "2024", "--out", str(out)]) == 0
    assert len(_read_csv(out / "gap.csv")) == 1


@pytest.mark.parametrize("carbon", ["off", "on"])
def test_gap_calls_lcoh_once_per_year(tmp_path, monkeypatch, carbon):
    import h2gap.costs
    import h2gap.subsidies

    real, years = h2gap.costs.lcoh, []

    def counting_lcoh(year, trajectory, params):
        years.append(year)
        return real(year, trajectory, params)

    # subsidies binds lcoh at import, so patch that name too: every call counts
    for module in (h2gap.costs, h2gap.subsidies):
        monkeypatch.setattr(module, "lcoh", counting_lcoh)
    assert main(["gap", "--carbon-pricing", carbon, "--horizon", "2045",
                 "--out", str(tmp_path / "out")]) == 0
    assert years == list(range(2024, 2046))   # 22 calls, parity found or not


def test_gap_parity_year_is_the_first_with_a_zero_gap(tmp_path, capsys):
    # a flat gas price equal to the 2030 LCOH makes the 2030 gap exactly 0
    assert main(["lcoh", "--out", str(tmp_path / "lcoh")]) == 0
    lcoh_2030 = next(float(r["lcoh"]) for r in _read_csv(tmp_path / "lcoh" / "lcoh.csv")
                     if r["year"] == "2030")
    raw = json.loads(Path(fixtures.params_path("central")).read_text())
    params = tmp_path / "params.json"
    params.write_text(json.dumps({**raw, "gas_usd_per_mwh": {"2024": lcoh_2030}}))
    assert main(["gap", "--params", str(params), "--out", str(tmp_path / "gap")]) == 0
    assert "parity year (central, carbon off): 2030\n" in capsys.readouterr().out


def test_lcoh_breakdown_columns(tmp_path):
    out = tmp_path / "out"
    assert main(["lcoh", "--horizon", "2030", "--out", str(out)]) == 0
    rows = _read_csv(out / "lcoh.csv")
    assert len(rows) == 7
    last = rows[-1]
    parts = sum(float(last[k]) for k in
                ("electricity", "stack_capital", "bop_capital", "transport_storage"))
    assert float(last["lcoh"]) == pytest.approx(parts, abs=1e-9)


def test_unknown_scenario_is_usage_error(tmp_path):
    assert main(["gap", "--scenario", "optimistic", "--out", str(tmp_path)]) == 2


def test_bad_params_file_is_usage_error(tmp_path):
    bad = tmp_path / "p.json"
    bad.write_text("{\"scenario_id\": \"x\"}")
    assert main(["gap", "--params", str(bad), "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# subsidies / support
# ---------------------------------------------------------------------------

def test_subsidies_cumulative_headline(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["subsidies", "--scenario", "central", "--carbon-pricing", "off",
                 "--out", str(out)])
    assert code == 0
    rows = _read_csv(out / "subsidies.csv")
    final = rows[-1]
    assert int(final["year"]) == 2045
    assert float(final["cumulative_busd"]) == pytest.approx(1600.0, rel=0.10)
    assert final["scenario"] == "central" and final["carbon_pricing"] == "off"


def test_subsidies_post2030_extension_is_larger(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["subsidies", "--out", str(out1)]) == 0
    assert main(["subsidies", "--include-post2030", "--out", str(out2)]) == 0
    base = float(_read_csv(out1 / "subsidies.csv")[-1]["cumulative_busd"])
    extended = float(_read_csv(out2 / "subsidies.csv")[-1]["cumulative_busd"])
    assert extended > 2 * base


def test_support_budget_inversion(tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["support", "--budget", "308", "--carbon-pricing", "off",
                 "--out", str(out)])
    assert code == 0
    (row,) = _read_csv(out / "support.csv")
    assert float(row["subsidy_supported_gw"]) == pytest.approx(56.0, rel=0.20)
    assert row["saturated"] == "False"


def test_support_zero_budget(tmp_path, capsys):
    assert main(["support", "--budget", "0", "--out", str(tmp_path / "o")]) == 0
    assert "supports 0.0 GW by 2030" in capsys.readouterr().out


def test_support_summary_names_the_pipelines_last_build_year(tmp_path, capsys):
    # the supported total includes the 2031-2035 additions, so it is not "by 2030"
    pipe = tmp_path / "pipe.csv"
    pipe.write_text(Path(fixtures.pipeline_path()).read_text()
                    + "".join(f"{y},5.0,true\n" for y in range(2031, 2036)))
    assert main(["support", "--budget", "5000", "--pipeline", str(pipe),
                 "--out", str(tmp_path / "o")]) == 0
    assert "supports 376.5 GW by 2035 (budget exceeds" in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["subsidies"], ["support", "--budget", "1"], ["sweep", "--horizon", "2030"]],
    ids=lambda argv: argv[0])
def test_overflowing_policy_share_names_the_pipeline(tmp_path, capsys, argv):
    # the 2028 share of the policy volume, total * 1.7e308 / 1.7e308, overflows
    pipe = tmp_path / "pipe.csv"
    pipe.write_text("year,additions_gw\n2023,1.86\n2024,11\n2028,1.7e308\n")
    out = tmp_path / "out"
    assert main([*argv, "--pipeline", str(pipe), "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"error: cannot spread 7 Mt/yr of demand-side policy over {pipe}: "
        "supported capacity exceeds additions in 2028: inf > 1.7e+308\n")
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--budget", "nan"],
    ["--budget", "inf"],
    ["--budget=-inf"],
    ["--budget", "100", "--policy-mt", "nan"],
    ["--budget", "100", "--policy-mt", "inf"],
])
def test_support_non_finite_number_is_usage_error(tmp_path, capsys, flags):
    out = tmp_path / "out"
    assert main(["support", *flags, "--out", str(out)]) == 2
    assert "must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, report", [
    (["lcoh", "--horizon", "2020"], "lcoh"),
    (["gap", "--horizon", "2020"], "gap"),
    (["sweep", "--horizon", "2023"], "sweep"),
    (["subsidies", "--horizon", "2023"], "subsidies"),
    (["support", "--budget", "-5"], "support"),
    (["support", "--budget", "100", "--policy-mt", "-1"], "support"),
])
def test_flag_below_its_range_is_usage_error(tmp_path, capsys, argv, report):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert "must be >=" in capsys.readouterr().err
    assert not (out / f"{report}.csv").exists()


@pytest.mark.parametrize("argv, report", [
    (["lcoh", "--horizon", "2101"], "lcoh"),
    (["subsidies", "--horizon", "2101"], "subsidies"),
])
def test_flag_above_2100_is_usage_error(tmp_path, capsys, argv, report):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 2
    assert "must be <= 2100, got 2101" in capsys.readouterr().err
    assert not out.exists()
    assert main([*argv[:-1], "2100", "--out", str(out)]) == 0
    assert (out / f"{report}.csv").is_file()


def test_out_under_regular_file_is_usage_error(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    assert main(["lcoh", "--out", str(blocker / "out")]) == 2
    assert "error:" in capsys.readouterr().err


def test_empty_out_writes_into_the_current_directory(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["lcoh", "--horizon", "2030", "--out", ""]) == 0
    assert os.listdir(tmp_path) == ["lcoh.csv"]


def _edited_params(tmp_path, key, value) -> Path:
    raw = json.loads(Path(fixtures.params_path("central")).read_text())
    raw[key] = value
    path = tmp_path / "params.json"
    path.write_text(json.dumps(raw))
    return path


@pytest.mark.parametrize("key, value", [
    ("cost_of_capital", float("nan")),
    ("investment_2023_usd_per_kw", float("inf")),
    ("full_load_hours", 0),
    ("full_load_hours", 9000),
    ("efficiency_lhv", {"2024": 0.0}),
    ("efficiency_lhv", {"2024": 1.2}),
    ("stack_lifetime_yr", {"2024": 0.5}),
    ("electricity_usd_per_mwh", {"2024": float("nan")}),
    ("gas_usd_per_mwh", "19"),
    ("full_load_hours", [3750]),
    ("gas_usd_per_mwh", {"2030": 20.0, "2050": 25.0}),
    # values the model has no meaning for; zero prices stay allowed
    ("fom_share_per_yr", -5),
    ("transport_storage_usd_per_mwh", -20),
    ("gas_emission_intensity_t_per_mwh", -0.265),
    ("electricity_usd_per_mwh", {"2024": 60, "2030": -50}),
    ("gas_usd_per_mwh", {"2024": -19}),
    ("co2_usd_per_t", {"2024": -117}),
    ("scenario_id", {"a": 1}),
    ("scenario_id", 7),
])
def test_invalid_params_file_is_usage_error(tmp_path, capsys, key, value):
    out = tmp_path / "out"
    params = _edited_params(tmp_path, key, value)
    assert main(["lcoh", "--params", str(params), "--out", str(out)]) == 2
    assert "bad parameter file" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["lcoh", "sweep"])
def test_missing_bundled_params_is_usage_error(tmp_path, capsys, monkeypatch,
                                               command):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("pipeline_additions.csv", "scenario_requirements.csv"):
        (data / name).write_bytes((Path(fixtures.data_dir()) / name).read_bytes())
    monkeypatch.setenv(fixtures.ENV_DATA_DIR, str(data))
    assert main([command, "--out", str(tmp_path / "out")]) == 2
    assert "parameter file not found" in capsys.readouterr().err


@pytest.mark.parametrize("rows, message", [
    pytest.param("2023,1.86,false\n2024,nan,false\n",
                 "additions_gw must be finite and >= 0, got nan", id="nan"),
    pytest.param("2023,1.86,false\n2024,inf,false\n",
                 "additions_gw must be finite and >= 0, got inf", id="inf"),
    pytest.param("2023,1.86,false\n2024,-1,false\n",
                 "additions_gw must be finite and >= 0, got -1.0", id="-1"),
    # the earliest year is the installed base, wherever its row stands
    pytest.param("2024,11.0,true\n2023,0,false\n2025,0,true\n",
                 "the installed base in 2023 must be positive, got 0.0", id="base-0"),
    pytest.param("2024,11.0,true\n2023,nan,false\n",
                 "additions_gw must be finite and >= 0, got nan", id="base-nan"),
    # the cost path starts in 2024, so a later base leaves its first years without one
    pytest.param("2032,3,true\n2031,5,true\n",
                 "the installed base must be in 2024 or earlier, got 2031", id="base-2031"),
    pytest.param("2026,3,true\n2025,5,true\n",
                 "the installed base must be in 2024 or earlier, got 2025", id="base-2025"),
    # an addition before 2024 has no LCOH: the learning curve starts at 2023 costs
    pytest.param("2020,1.0,false\n2021,2.0,true\n2024,11.0,true\n",
                 "additions must be in 2024 or later, got 2021", id="addition-2021"),
])
def test_non_finite_pipeline_addition_is_data_error(tmp_path, capsys, rows, message):
    pipe = tmp_path / "pipe.csv"
    pipe.write_text(f"year,additions_gw,approximate\n{rows}")
    out = tmp_path / "out"
    assert main(["lcoh", "--pipeline", str(pipe), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"error: {pipe}: 1 bad row(s)\n  line 3: {message}\n"
    assert not out.exists()


def test_pipeline_based_in_first_cost_year_loads(tmp_path):
    pipe = tmp_path / "pipe.csv"
    pipe.write_text("year,additions_gw\n2024,5\n2025,3\n")
    traj = fixtures.load_pipeline(pipe)
    assert (traj.base_year, traj.base_capacity_gw) == (2024, 5.0)


def test_continuation_error_names_both_files(tmp_path, capsys):
    # a 2030 pipeline above the 2040 median cannot be continued along the medians
    pipe = tmp_path / "pipe.csv"
    pipe.write_text("year,additions_gw\n2023,1.86\n2030,2000000\n")
    assert main(["lcoh", "--pipeline", str(pipe), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: cannot continue {pipe} along the medians of "
        f"{fixtures.requirements_path()}: cumulative targets must be non-decreasing")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv, report, column", [
    (["subsidies"], "subsidies", "annual_busd"),
    (["support", "--budget", "300"], "support", "spent_busd"),
])
def test_non_finite_report_value_exits_3_without_report(tmp_path, capsys, fmt,
                                                        argv, report, column):
    # a finite but huge investment cost overflows the LCOH to inf, and the
    # budget inversion then spends inf * 0 = nan
    params = _edited_params(tmp_path, "investment_2023_usd_per_kw", 1e308)
    out = tmp_path / "out"
    assert main([*argv, "--params", str(params), "--format", fmt,
                 "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert f"{report}.{fmt}: column '{column}' is not finite in data row 1" \
        in captured.err
    assert not re.search(r"\b(nan|inf)\b", captured.out + captured.err, re.I)
    assert not out.exists()


# ---------------------------------------------------------------------------
# ambition
# ---------------------------------------------------------------------------

def test_ambition_bundled_headline(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["ambition", "--out", str(out)]) == 0
    (stat,) = _read_csv(out / "ambition_stats.csv")
    assert float(stat["median_gw"]) == pytest.approx(350.0)
    assert float(stat["pipeline_gw"]) == pytest.approx(441.0)
    assert float(stat["median_gap_gw"]) == pytest.approx(-91.0)
    assert int(stat["n"]) == 15


def test_ambition_prints_snapshot_load_report(tmp_path, capsys):
    out = tmp_path / "out"
    snap = fixtures.snapshot_path(2021)
    assert main(["ambition", "--snapshot", str(snap), "--out", str(out)]) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == (f"loaded {snap}: 8 kept, 3 dropped {{'missing_launch_year': 1, "
                     f"'missing_capacity': 1, 'status_other': 1}}")


@pytest.mark.parametrize("argv", [
    ["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022"],
    ["ambition"],
], ids=lambda argv: argv[0])
def test_stdout_lines_have_no_trailing_whitespace(tmp_path, capsys, argv):
    # the 2021 snapshot drops rows, the 2023 one none
    assert main([*argv, "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line != line.rstrip()] == []
    assert f"loaded {fixtures.snapshot_path(2023)}: 30 kept, 0 dropped" in lines


def test_ambition_with_outlier(tmp_path):
    out = tmp_path / "out"
    assert main(["ambition", "--exclude-outliers", "false", "--out", str(out)]) == 0
    (stat,) = _read_csv(out / "ambition_stats.csv")
    assert int(stat["n"]) == 16
    assert float(stat["max_gw"]) == pytest.approx(1700.0)


def test_ambition_single_scenario_file(tmp_path):
    reqs = tmp_path / "reqs.csv"
    reqs.write_text("source,scenario_name,year,capacity_gw,production_mt_per_yr,"
                    "outlier,approximate\nOnly,solo,2030,500,,false,false\n")
    out = tmp_path / "out"
    assert main(["ambition", "--scenarios-file", str(reqs), "--out", str(out)]) == 0
    rows = _read_csv(out / "ambition_gaps.csv")
    assert len(rows) == 1
    assert float(rows[0]["gap_gw"]) == pytest.approx(500.0 - 441.0)


def test_ambition_counts_a_zero_gap_as_covered(tmp_path, capsys):
    from h2gap.projects import load_snapshot, pipeline_gw

    pipe = pipeline_gw(load_snapshot(fixtures.snapshot_path(2023), 2023), 2030)
    reqs = tmp_path / "reqs.csv"
    reqs.write_text("source,scenario_name,year,capacity_gw,production_mt_per_yr,"
                    "outlier,approximate\n"
                    + "".join(f"S{i},s{i},2030,{gw!r},,false,false\n"
                              for i, gw in enumerate((pipe, pipe + 0.5, pipe + 100.0))))
    assert main(["ambition", "--scenarios-file", str(reqs),
                 "--out", str(tmp_path / "out")]) == 0
    assert "(1 of 3 scenarios already covered)\n" in capsys.readouterr().out


def test_ambition_empty_scenario_set_exits_2(tmp_path):
    reqs = tmp_path / "reqs.csv"
    reqs.write_text("source,scenario_name,year,capacity_gw,production_mt_per_yr,"
                    "outlier,approximate\n")
    assert main(["ambition", "--scenarios-file", str(reqs),
                 "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("column", ["source", "scenario_name", "year", "capacity_gw",
                                    "production_mt_per_yr", "outlier"])
def test_ambition_missing_requirement_column_exits_2(tmp_path, capsys, column):
    names = ["source", "scenario_name", "year", "capacity_gw",
             "production_mt_per_yr", "outlier", "approximate"]
    values = dict(zip(names, ["Only", "solo", "2030", "500", "", "false", "false"]))
    kept = [n for n in names if n != column]
    reqs = tmp_path / "reqs.csv"
    reqs.write_text(",".join(kept) + "\n" + ",".join(values[n] for n in kept) + "\n")
    out = tmp_path / "out"
    assert main(["ambition", "--scenarios-file", str(reqs), "--out", str(out)]) == 2
    assert f"missing column '{column}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("column", ["year", "additions_gw"])
def test_missing_pipeline_column_exits_2(tmp_path, capsys, column):
    table = [["year", "additions_gw", "approximate"], ["2023", "1.86", "false"],
             ["2024", "11.0", "true"]]
    keep = [i for i, name in enumerate(table[0]) if name != column]
    pipe = tmp_path / "pipe.csv"
    pipe.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in table))
    out = tmp_path / "out"
    assert main(["lcoh", "--pipeline", str(pipe), "--out", str(out)]) == 2
    assert f"{pipe}: missing column '{column}'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, name", [
    (["ambition"], "--scenarios-file", "scenario_requirements.csv"),
    (["lcoh", "--horizon", "2050"], "--pipeline", "pipeline_additions.csv"),
], ids=["requirements", "pipeline"])
def test_approximate_column_can_be_left_out(tmp_path, argv, flag, name):
    # the requirement flag reads as false when absent; the pipeline's is not read
    with open(Path(fixtures.data_dir()) / name, newline="") as fh:
        table = list(csv.reader(fh))
    keep = [i for i, c in enumerate(table[0]) if c != "approximate"]
    assert len(keep) == len(table[0]) - 1
    trimmed = tmp_path / name
    trimmed.write_text("".join(",".join(row[i] for i in keep) + "\n" for row in table))
    reports = []
    for i, path in enumerate((Path(fixtures.data_dir()) / name, trimmed)):
        out = tmp_path / f"out{i}"
        assert main([*argv, flag, str(path), "--out", str(out)]) == 0
        reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert reports[0] == reports[1]


@pytest.mark.parametrize("argv, flag, text", [
    (["ambition"], "--scenarios-file",
     "source,scenario_name,year,capacity_gw,production_mt_per_yr,outlier,approximate\n"
     "A,one,2030,100,,false,false\n"
     "\n"
     'B,"two\nlines",2030,200,,false,false\n'
     "C,three,2030,300,,maybe,false\n"
     "D,four,20x0,400,,false,false\n"),
    (["lcoh"], "--pipeline",
     "year,additions_gw,approximate\n"
     "2023,1.86,false\n"
     "\n"
     '2024,11.0,"tr\nue"\n'
     "2025,lots,true\n"
     "2024,12.0\n"),                          # a duplicate year in a short record
    (["ambition"], "--snapshot",
     "ref_id,name,country,region,status,launch_year,capacity_mw_el,confidential\n"
     "A,one,DEU,Europe,Concept,2024,10,false\n"
     "\n"
     'B,"two\nlines",DEU,Europe,Concept,2024,10,false\n'
     "C,three,DEU,Europe,Mystery,2024,10,false\n"
     "A,four,DEU,Europe,Concept,2024,10,false\n"),
], ids=["requirements", "pipeline", "snapshot"])
def test_input_row_errors_name_physical_lines(tmp_path, capsys, argv, flag, text):
    # a blank line and a quoted field spanning two lines put the bad rows on
    # lines 6 and 7; every input CSV reports all of its bad rows in one error
    path = tmp_path / "input.csv"
    path.write_text(text)
    out = tmp_path / "out"
    assert main([*argv, flag, str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 2 bad row(s)\n")
    assert re.findall(r"^  line (\d+): ", err, re.M) == ["6", "7"]
    assert not out.exists()


@pytest.mark.parametrize("tail, message", [
    ("Z,caf\xe9,1,1,1,1,1,1\n".encode("latin-1"),
     ": not UTF-8 text: invalid continuation byte"),
    (b'Z,"' + b"x" * 200_000 + b'"\n',          # over the csv field size limit
     ": not CSV: field larger than field limit"),
], ids=["latin-1", "huge-field"])
@pytest.mark.parametrize("name, argv", [
    ("snap2022.csv", ["track", "--target-year", "2022", "--snapshots"]),
    ("scenario_requirements.csv", ["ambition", "--scenarios-file"]),
    ("pipeline_additions.csv", ["lcoh", "--pipeline"]),
], ids=["snapshot", "requirements", "pipeline"])
def test_input_that_is_not_utf8_csv_exits_2_naming_the_file(tmp_path, capsys, name,
                                                            argv, tail, message):
    bad = tmp_path / name
    bad.write_bytes((Path(fixtures.data_dir()) / name).read_bytes() + tail)
    # a track run names the bad one of its three snapshots
    arg = SNAPSHOT_ARGS.replace(str(fixtures.snapshot_path(2022)), str(bad)) \
        if argv[0] == "track" else str(bad)
    out = tmp_path / "out"
    assert main([*argv, arg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}") and message in err
    assert not out.exists()


@pytest.mark.parametrize("capacity", ["nan", "inf"])
def test_ambition_non_finite_requirement_exits_3(tmp_path, capsys, capacity):
    reqs = tmp_path / "reqs.csv"
    reqs.write_text("source,scenario_name,year,capacity_gw,production_mt_per_yr,"
                    f"outlier,approximate\nOnly,solo,2030,{capacity},,false,false\n")
    out = tmp_path / "out"
    assert main(["ambition", "--scenarios-file", str(reqs), "--out", str(out)]) == 3
    assert capsys.readouterr().err.startswith(
        f"error: {reqs}: 1 bad row(s)\n  line 2: requirement capacity must be positive")
    assert not out.exists()


@pytest.mark.parametrize("argv, flag, name", [
    (["ambition"], "--snapshot", "snap2023.csv"),
    (["ambition"], "--scenarios-file", "scenario_requirements.csv"),
    (["lcoh", "--horizon", "2050"], "--pipeline", "pipeline_additions.csv"),
    (["lcoh"], "--params", "params_central.json"),
], ids=["snapshot", "requirements", "pipeline", "params"])
def test_input_csv_with_byte_order_mark_reads_the_same(tmp_path, argv, flag, name):
    # spreadsheet exports start a UTF-8 CSV with a byte-order mark, and some
    # editors save JSON with one
    plain = Path(fixtures.data_dir()) / name
    marked = tmp_path / "bom" / name
    marked.parent.mkdir()
    marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
    reports = []
    for i, path in enumerate((plain, marked)):
        out = tmp_path / f"out{i}"
        assert main([*argv, flag, str(path), "--out", str(out)]) == 0
        reports.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert reports[0] == reports[1]


# ---------------------------------------------------------------------------
# sweep and determinism
# ---------------------------------------------------------------------------

def test_sweep_covers_all_combinations(tmp_path):
    out = tmp_path / "out"
    assert main(["sweep", "--out", str(out)]) == 0
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 6
    combos = {(r["scenario"], r["carbon_pricing"]) for r in rows}
    assert combos == {(s, c) for s in ("central", "progressive", "conservative")
                      for c in ("on", "off")}
    central_on = next(r for r in rows if r["scenario"] == "central"
                      and r["carbon_pricing"] == "on")
    assert int(central_on["parity_year"]) == 2043


@pytest.mark.parametrize("command, flag", [
    ("track", "--params"), ("track", "--pipeline"), ("track", "--scenarios-file"),
    ("track", "--policy-mt"), ("ambition", "--params"), ("ambition", "--pipeline"),
    ("ambition", "--policy-mt"), ("lcoh", "--policy-mt"), ("gap", "--policy-mt"),
    ("subsidies", "--through"), ("support", "--scenarios-file"), ("sweep", "--params"),
])
def test_flag_the_command_does_not_read_is_unrecognized(tmp_path, capsys, command, flag):
    # a command takes only the flags it reads: one it would ignore is a usage
    # error, even with a valid value
    value = {"--params": str(fixtures.params_path("central")),
             "--pipeline": str(fixtures.pipeline_path()),
             "--scenarios-file": str(fixtures.requirements_path()),
             "--policy-mt": "7", "--through": "2045"}[flag]
    out = tmp_path / "out"
    assert main([command, *REQUIRED.get(command, []), flag, value,
                 "--out", str(out)]) == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022"],
    ["ambition"],
    ["lcoh"],
    ["gap"],
    ["subsidies", "--carbon-pricing", "on"],
    ["support", "--budget", "308"],
    ["sweep"],
], ids=lambda argv: argv[0])
def test_outputs_byte_identical_across_runs(tmp_path, capsys, argv, fmt):
    runs = []
    for out in (tmp_path / "r1", tmp_path / "r2"):
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        runs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    assert runs[0] and all(name.endswith(f".{fmt}") for name in runs[0])
    assert runs[0] == runs[1]


def test_usage_error_without_command():
    assert main([]) == 2


@pytest.mark.parametrize("command", list(cli._COMMANDS))
def test_parser_builds_the_flags_of_its_command_only(command):
    # the chosen command parses into exactly the flags it declares; every other
    # command is a bare choice, so it parses into nothing but its name
    parser = cli.build_parser(command)
    args = vars(parser.parse_args([command, *REQUIRED.get(command, [])]))
    flags = cli._COMMANDS[command][2]
    assert sorted(args) == sorted(["command", *(f[2:].replace("-", "_") for f in flags)])
    for other in cli._COMMANDS:
        if other != command:
            assert vars(parser.parse_args([other])) == {"command": other}


def test_readme_command_table_matches_the_parser():
    # README's table names each command's own and input flags; the usage
    # order puts the five shared ones between them
    header = "| command | its own flags | shared input flags | ignores of the five |"
    rows = README.read_text(encoding="utf-8").split(header)[1].split("\n\n")[0]
    table = {}
    for line in rows.splitlines():
        if line.startswith("| `"):
            name, *columns = [c.strip().replace("`", "") for c in line.strip("|").split("|")]
            own, inputs, ignored = ([] if c == "none" else c.split(", ") for c in columns)
            assert set(ignored) <= set(cli._SHARED)
            table[name] = (*own, *cli._SHARED, *inputs)
    assert table == {name: flags for name, (_, _, flags) in cli._COMMANDS.items()}


# ---------------------------------------------------------------------------
# One run: the paused collector, the JSON writer and ``python -m h2gap``
# ---------------------------------------------------------------------------

@pytest.fixture
def gc_state():
    """Restore the collector's setting, thresholds and callbacks after the test."""
    enabled, threshold, callbacks = gc.isenabled(), gc.get_threshold(), list(gc.callbacks)
    yield
    gc.callbacks[:] = callbacks
    gc.set_threshold(*threshold)
    if enabled:
        gc.enable()
    else:
        gc.disable()


def _collections_during(run) -> int:
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info)

    gc.collect()
    gc.callbacks.append(count)
    try:
        run()
    finally:
        gc.callbacks.remove(count)
    return len(started)


def test_track_runs_without_a_collection(tmp_path, capsys, gc_state):
    argv = ["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022",
            "--out", str(tmp_path / "out")]
    gc.enable()
    # a low threshold, so that the same run with the collector left on does
    # collect whatever the parser allocates, and 0 below is not vacuous
    gc.set_threshold(50)
    assert _collections_during(lambda: cli._run(argv)) > 0
    assert _collections_during(lambda: main(argv)) == 0
    assert gc.isenabled()


def _raise(args):
    raise RuntimeError("command failed")


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
@pytest.mark.parametrize("argv, code", [
    (["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022"], 0),
    (["track", "--target-year", "2022"], 2),                  # argparse usage error
    (["track", "--snapshots", "absent2021.csv,absent2022.csv", "--target-year", "2022"], 2),
    (["track", "--snapshots", SNAPSHOT_ARGS.replace(
        f",{fixtures.snapshot_path(2022)}", ""), "--target-year", "2023"], 3),
    (["lcoh"], RuntimeError),
], ids=["exit-0", "usage", "exit-2", "exit-3", "raises"])
def test_main_leaves_the_collector_as_it_found_it(tmp_path, capsys, monkeypatch,
                                                  gc_state, enabled, argv, code):
    monkeypatch.setitem(cli._COMMANDS, "lcoh", (_raise, *cli._COMMANDS["lcoh"][1:]))
    if enabled:
        gc.enable()
    else:
        gc.disable()
    argv = [*argv, "--out", str(tmp_path / "out")]
    if code is RuntimeError:
        with pytest.raises(RuntimeError, match="command failed"):
            main(argv)
    else:
        assert main(argv) == code
    assert gc.isenabled() is enabled


# every character class json escapes: quotes, backslashes, control
# characters and non-ASCII text
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f/'),
                          st.characters()), max_size=12)
_VALUE = st.one_of(
    _TEXT, st.just(""), st.booleans(),
    st.integers(min_value=-10**40, max_value=10**40),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 1e-300, 1e300, 5e-324, 1.7976931348623157e308]))


@given(rows=st.lists(st.dictionaries(_TEXT, _VALUE, min_size=1, max_size=6),
                     max_size=5))
def test_json_writer_matches_indent_2(rows):
    assert cli._json_text(rows) == json.dumps(rows, indent=2)


def test_python_dash_m_runs_the_command(tmp_path):
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "h2gap", *argv], env=env,
                              cwd=tmp_path, capture_output=True, text=True, timeout=60)

    proc = run("lcoh", "--out", str(tmp_path / "out"))
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "out" / "lcoh.csv").is_file()
    proc = run("--help")
    assert proc.returncode == 0 and proc.stdout.startswith("usage: h2gap")


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_closed_stdout_ends_a_finished_run_with_exit_0(tmp_path, unbuffered):
    # ``h2gap track ... | head -c 10``: the reader is gone before the summary
    # is printed, whether stdout is flushed per write or at exit
    src = Path(cli.__file__).resolve().parents[1]
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(src)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [sys.executable, "-m", "h2gap", "track", "--snapshots", SNAPSHOT_ARGS,
            "--target-year", "2022", "--out"]
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([*argv, str(tmp_path / "closed")], env=env,
                              stdout=write_end, stderr=subprocess.PIPE,
                              timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")
    reference = subprocess.run([*argv, str(tmp_path / "open")], env=env,
                               capture_output=True, timeout=60)
    assert reference.returncode == 0, reference.stderr
    names = sorted(os.listdir(tmp_path / "open"))
    assert names == ["fate_rates.csv", "sankey_flows.csv", "sankey_nodes.csv",
                     "transitions.csv"]
    assert sorted(os.listdir(tmp_path / "closed")) == names
    for name in names:
        assert (tmp_path / "closed" / name).read_bytes() \
            == (tmp_path / "open" / name).read_bytes()


def test_closed_stdout_run_leaves_no_descriptor_open(tmp_path):
    # main called in process: the null device it points stdout at is closed
    # again, so the next descriptor opened gets the same number as before
    argv = ["track", "--snapshots", SNAPSHOT_ARGS, "--target-year", "2022",
            "--out", str(tmp_path / "out")]
    code = ("import os, sys\nfrom h2gap.cli import main\n"
            "free = os.open(os.devnull, os.O_RDONLY)\nos.close(free)\n"
            f"code = main({argv!r})\n"
            "sys.stderr.write(f'{code} {os.open(os.devnull, os.O_RDONLY) - free}')\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-c", code], env=env, stdout=write_end,
                              stderr=subprocess.PIPE, text=True, timeout=60)
    finally:
        os.close(write_end)
    assert proc.stderr == "0 0"


@pytest.mark.parametrize("stderr", ["closed pipe", "/dev/full"],
                         ids=["closed-pipe", "dev-full"])
@pytest.mark.parametrize("argv, code", [
    (["lcoh", "--params", "absent.json"], 2),
    (["track", "--snapshots",
      f"{fixtures.snapshot_path(2021)},{fixtures.snapshot_path(2023)}",
      "--target-year", "2023"], 3),
], ids=["exit-2", "exit-3"])
def test_unwritable_stderr_keeps_the_exit_code(tmp_path, argv, code, stderr):
    # ``h2gap ... 2>&1 | head -c0`` or ``2>/dev/full``: the error line is
    # dropped, as argparse drops its own, and the exit code stays documented
    if stderr == "/dev/full" and not os.path.exists(stderr):
        pytest.skip("no /dev/full on this system")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    err = write_end if stderr == "closed pipe" else open(stderr, "w")
    try:
        proc = subprocess.run([sys.executable, "-m", "h2gap", *argv, "--out",
                               str(tmp_path / "out")], env=env, cwd=tmp_path,
                              stdout=write_end, stderr=err, timeout=60)
    finally:
        os.close(write_end)
        if err is not write_end:
            err.close()
    assert proc.returncode == code
    assert not (tmp_path / "out").exists()


def test_failed_track_prints_no_load_lines(tmp_path, capsys):
    # the loaded lines are part of the summary, printed once the reports exist
    code = main(["track", "--snapshots",
                 f"{fixtures.snapshot_path(2021)},{fixtures.snapshot_path(2023)}",
                 "--target-year", "2023", "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == "error: vintage 2021 lists no project with launch year 2023\n"
    assert not (tmp_path / "out").exists()
