import copy
import csv
import pickle
import random

import pytest

from h2gap import (
    Fate,
    ProjectRecord,
    Snapshot,
    Status,
    fate_rates,
    fixtures,
    load_snapshot,
    pipeline_gw,
    sankey_flows,
    track,
)
from h2gap import projects
from h2gap.projects import (
    _DEMO_STATES,
    _STATUS_ALIASES,
    LoadReport,
    SnapshotDataError,
    SnapshotSchemaError,
)

HEADER = "ref_id,name,country,region,status,launch_year,capacity_mw_el,confidential\n"


def _rec(ref, status=Status.CONCEPT, launch=2022, cap=100.0, region="Europe",
         confidential=False):
    return ProjectRecord(ref_id=ref, name=ref, country="DEU", region=region,
                         status=status, launch_year=launch, capacity_mw=cap,
                         confidential=confidential)


# ---------------------------------------------------------------------------
# Loading
# ---------------------------------------------------------------------------

def test_bundled_2021_snapshot_counts(snapshots):
    snap = snapshots[0]
    assert snap.load_report.kept == 8
    assert snap.load_report.dropped == 3
    assert snap.load_report.dropped_reasons == {
        "missing_launch_year": 1, "missing_capacity": 1, "status_other": 1}
    assert len(snap) == 8


def test_header_only_file_is_empty_snapshot(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text(HEADER)
    snap = load_snapshot(path, 2021)
    assert len(snap) == 0
    assert snap.load_report.kept == 0


def test_status_aliases_merge_to_fid_construction(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text(HEADER
                    + "A,one,DEU,Europe,FID,2024,10,false\n"
                    + "B,two,DEU,Europe,under CONSTRUCTION,2024,10,false\n"
                    + "C,three,DEU,Europe,fid/construction,2024,10,false\n")
    snap = load_snapshot(path, 2023)
    assert all(r.status is Status.FID_CONSTRUCTION for r in snap.records)


def test_malformed_rows_reported_with_line_numbers(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(HEADER
                    + "A,ok,DEU,Europe,Concept,2024,10,false\n"      # line 2
                    + "B,badcap,DEU,Europe,Concept,2024,lots,false\n"  # line 3
                    + "C,badstatus,DEU,Europe,Mystery,2024,10,false\n"  # line 4
                    + "D,badyear,DEU,Europe,Concept,soon,10,false\n"   # line 5
                    + " ,noref,DEU,Europe,Concept,2024,10,false\n")     # line 6
    with pytest.raises(SnapshotDataError) as exc:
        load_snapshot(path, 2023)
    lines = [ln for ln, _ in exc.value.row_errors]
    assert lines == [3, 4, 5, 6]
    assert exc.value.row_errors[-1] == (6, "empty ref_id")


def test_blank_launch_year_or_capacity_is_dropped_not_an_error(tmp_path):
    path = tmp_path / "blank.csv"
    path.write_text(HEADER
                    + "A,ok,DEU,Europe,Concept,2024,10,false\n"
                    + "B,noyear,DEU,Europe,Concept,  ,10,false\n"
                    + "C,nocap,DEU,Europe,Concept,2024, ,false\n")
    report = load_snapshot(path, 2023).load_report
    assert report == LoadReport(kept=1, dropped=2, dropped_reasons={
        "missing_launch_year": 1, "missing_capacity": 1})


def test_repeated_bad_values_each_keep_their_row_error(tmp_path):
    # parsed launch years and flags are memoised per load; bad ones are not
    path = tmp_path / "bad.csv"
    path.write_text(HEADER
                    + "A,ok,DEU,Europe,Concept,2024,10,false\n"       # line 2
                    + "B,year,DEU,Europe,Concept,soon,10,false\n"     # line 3
                    + "C,flag,DEU,Europe,Concept,2024,10,maybe\n"     # line 4
                    + "D,year,DEU,Europe,Concept,soon,10,false\n"     # line 5
                    + "E,flag,DEU,Europe,Concept,2024,10,maybe\n"     # line 6
                    + "F,ok,DEU,Europe,Concept, 2024 ,10,false\n")    # line 7
    with pytest.raises(SnapshotDataError) as exc:
        load_snapshot(path, 2023)
    assert [ln for ln, _ in exc.value.row_errors] == [3, 4, 5, 6]
    messages = [msg for _, msg in exc.value.row_errors]
    assert messages[0] == messages[2] and messages[1] == messages[3]
    assert "soon" in messages[0] and "maybe" in messages[1]


def test_duplicate_ref_id_is_hard_error(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text(HEADER
                    + "A,one,DEU,Europe,Concept,2024,10,false\n"
                    + "A,two,DEU,Europe,Concept,2025,20,false\n")
    with pytest.raises(SnapshotDataError, match="duplicate"):
        load_snapshot(path, 2023)


def test_snapshot_names_its_first_duplicate_ref_id_in_sorted_order():
    records = [_rec("B"), _rec("A"), _rec("B"), _rec("A")]
    with pytest.raises(ValueError, match="^duplicate ref_id 'A' in snapshot 2023$"):
        Snapshot(2023, records)


def test_missing_column_is_schema_error(tmp_path):
    path = tmp_path / "cols.csv"
    path.write_text("ref_id,name,status\nA,one,Concept\n")
    with pytest.raises(SnapshotSchemaError):
        load_snapshot(path, 2023)


def test_nonpositive_capacity_is_row_error(tmp_path):
    path = tmp_path / "zero.csv"
    path.write_text(HEADER + "A,one,DEU,Europe,Concept,2024,0,false\n")
    with pytest.raises(SnapshotDataError):
        load_snapshot(path, 2023)


def test_capacity_at_the_edges_of_positive_and_finite_is_kept(tmp_path):
    # the loader's own guard is the only check a kept row passes
    path = tmp_path / "edges.csv"
    path.write_text(HEADER + "A,one,DEU,Europe,Concept,2024,5e-324,false\n"
                    + "B,two,DEU,Europe,Concept,2024,0.5,false\n"
                    + "C,three,DEU,Europe,Concept,2024,1.7e308,false\n")
    snap = load_snapshot(path, 2023)
    assert [r.capacity_mw for r in snap.records] == [5e-324, 0.5, 1.7e308]


def test_demo_rows_need_demo_state(tmp_path):
    path = tmp_path / "demo.csv"
    path.write_text(HEADER + "A,one,DEU,Europe,DEMO,2023,10,false\n")
    with pytest.raises(SnapshotDataError, match="demo_state"):
        load_snapshot(path, 2023)
    header = HEADER.rstrip("\n") + ",demo_state\n"
    path.write_text(header
                    + "A,run,DEU,Europe,DEMO,2023,10,false,running\n"
                    + "B,fut,DEU,Europe,DEMO,2024,10,false,future\n"
                    + "C,dec,DEU,Europe,DEMO,2020,10,false,decommissioned\n")
    snap = load_snapshot(path, 2023)
    by = snap.by_ref()
    assert by["A"].status is Status.OPERATIONAL
    assert by["B"].status is Status.FID_CONSTRUCTION
    assert by["C"].status is Status.DECOMMISSIONED
    path.write_text(header + "A,huh,DEU,Europe,DEMO,2023,10,false,paused\n")
    with pytest.raises(SnapshotDataError):
        load_snapshot(path, 2023)


def _variants(word: str) -> list[str]:
    """Case and whitespace spellings that normalise back to ``word``."""
    return [word, word.upper(), f"  {word.title()} ", word.replace(" ", " \t ")]


# `name` appears twice: the loader reads the last one, as csv.DictReader does
SYNTHETIC_HEADER = ["ref_id", "name", "country", "region", "status", "launch_year",
                    "capacity_mw_el", "confidential", "name", "demo_state"]


def _synthetic_snapshot(seed: int):
    """Rows of a snapshot with every status, DEMO state and boolean spelling,
    every drop reason, short rows and extra fields, and the records and
    load report the loader must return for them."""
    rng = random.Random(seed)
    cases = [(spelling, status, "") for alias, status in _STATUS_ALIASES.items()
             if status is not Status.DEMO for spelling in _variants(alias)]
    cases += [(rng.choice(_variants("demo")), status, spelling)
              for state, status in _DEMO_STATES.items()
              for spelling in _variants(state)]
    cases += [("Concept", Status.CONCEPT, "")] * 6
    rng.shuffle(cases)
    bools = [(spelling, text in ("true", "1", "yes"))
             for text in ("true", "1", "yes", "false", "0", "no", "")
             for spelling in _variants(text)]
    rows, records, dropped = [], [], {}
    for i, (status_text, status, demo_state) in enumerate(cases):
        ref_id, name = f"R{i:04d}", f"Project {i}"
        launch = rng.randint(2018, 2035)
        capacity = round(rng.uniform(0.1, 3000.0), 1)
        conf_text, confidential = bools[i % len(bools)]
        drop = None
        if status is Status.OTHER:
            drop = "status_other"
        elif i % 9 == 1:
            drop = "missing_launch_year"
        elif i % 9 == 2:
            drop = "missing_capacity"
        row = [f" {ref_id} ", f"decoy {i}", " DEU", "Europe ", status_text,
               "" if drop == "missing_launch_year" else f" {launch}",
               "" if drop == "missing_capacity" else f"{capacity!r} ",
               conf_text, f" {name}", demo_state]
        if not demo_state and i % 5 == 0:
            row, name = row[:8], ""       # short row: both names read as empty
        elif i % 7 == 0:
            row += ["extra", "fields"]
        rows.append(row)
        if i % 11 == 0:
            rows.append([])               # a blank line
        if drop is None:
            records.append(ProjectRecord(
                ref_id=ref_id, name=name, country="DEU", region="Europe",
                status=status, launch_year=launch, capacity_mw=capacity,
                confidential=confidential))
        else:
            dropped[drop] = dropped.get(drop, 0) + 1
    report = LoadReport(kept=len(records), dropped=sum(dropped.values()),
                        dropped_reasons=dropped)
    return rows, records, report


def _write_synthetic(tmp_path, seed: int):
    rows, records, report = _synthetic_snapshot(seed)
    path = tmp_path / f"synthetic{seed}.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(SYNTHETIC_HEADER)
        writer.writerows(rows)
    return path, records, report


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_synthetic_snapshot_loads_to_expected_records(tmp_path, seed):
    path, records, report = _write_synthetic(tmp_path, seed)
    snap = load_snapshot(path, 2023)
    assert snap.records == tuple(sorted(records, key=lambda r: r.ref_id))
    assert snap.load_report == report
    assert set(report.dropped_reasons) == {"status_other", "missing_launch_year",
                                           "missing_capacity"}
    assert {r.confidential for r in records} == {True, False}


def test_load_builds_kept_rows_past_the_checked_constructor(tmp_path, monkeypatch):
    # load_snapshot applies ProjectRecord.__new__'s checks to each row itself
    # and builds the record with tuple.__new__: one per kept row, each what
    # the checked constructor would build from its fields
    path, records, report = _write_synthetic(tmp_path, 4)

    def refuse(cls, *args, **kwargs):
        raise AssertionError("load_snapshot called ProjectRecord.__new__")

    monkeypatch.setattr(ProjectRecord, "__new__", refuse)
    snap = load_snapshot(path, 2023)
    monkeypatch.undo()
    assert report.dropped > 0
    assert len(snap.records) == snap.load_report.kept == len(records)
    for rec in snap.records:
        assert type(rec) is ProjectRecord and ProjectRecord(*rec) == rec


def test_records_of_one_load_share_each_country_and_region(tmp_path):
    # every spelling of a place, padded or not, gives the one stripped str
    # that the load keeps for it
    countries = [" DEU", "DEU ", "\tDEU", "DEU", " DEU\t", "FRA", "  FRA", "AUS "]
    regions = ["Europe ", " Europe", "Europe", "\tEurope\t", "Oceania", " Oceania "]
    rows = [[f"P{i}", f"Project {i}", countries[i % len(countries)],
             regions[i % len(regions)], "Concept", "2025", "10", "false"]
            for i in range(48)]
    path = tmp_path / "places.csv"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([HEADER.strip().split(","), *rows])
    recs = load_snapshot(path, 2023).records
    assert len(recs) == 48
    cells = {row[0]: row for row in rows}
    for r in recs:
        assert (r.country, r.region) == (cells[r.ref_id][2].strip(),
                                         cells[r.ref_id][3].strip())
        assert type(r) is ProjectRecord and ProjectRecord(*r) == r
    assert {r.country for r in recs} == {"DEU", "FRA", "AUS"}
    assert {r.region for r in recs} == {"Europe", "Oceania"}
    assert len({id(r.country) for r in recs}) == len({r.country for r in recs})
    assert len({id(r.region) for r in recs}) == len({r.region for r in recs})


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_status_and_flag_parsed_once_per_distinct_text(tmp_path, record_calls, seed):
    path, _, _ = _write_synthetic(tmp_path, seed)
    rows = [row for row in _synthetic_snapshot(seed)[0] if row]
    statuses = record_calls(projects, "_parse_status")
    flags = record_calls(projects, "_parse_bool")
    load_snapshot(path, 2023)
    # the memos key on the raw text, so each spelling is parsed exactly once
    assert sorted(statuses) == sorted({(row[4],) for row in rows})
    assert sorted(flags) == sorted({(row[7],) for row in rows})
    assert len(statuses) < len(rows) and len(flags) < len(rows)


def test_non_finite_capacity_is_row_error(tmp_path):
    path = tmp_path / "nan.csv"
    path.write_text(HEADER + "A,one,DEU,Europe,Concept,2024,10,false\n"
                    + "B,two,DEU,Europe,Concept,2024,nan,false\n"
                    + "C,three,DEU,Europe,Concept,2024, INF ,false\n"
                    + "D,four,DEU,Europe,Concept,2024,-inf,false\n"
                    + "E,five,DEU,Europe,Concept,2024,0,false\n")
    with pytest.raises(SnapshotDataError) as exc:
        load_snapshot(path, 2023)
    assert exc.value.row_errors == [(3, "capacity must be finite, got nan"),
                                    (4, "capacity must be finite, got inf"),
                                    (5, "capacity must be positive, got -inf"),
                                    (6, "capacity must be positive, got 0.0")]
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="positive and finite"):
            _rec("A", cap=bad)


def test_record_is_immutable():
    rec = _rec("A")
    with pytest.raises(AttributeError):
        rec.capacity_mw = 5.0
    with pytest.raises(AttributeError):
        rec.note = "x"


def test_record_has_no_instance_dict():
    assert not hasattr(_rec("A"), "__dict__")


def test_records_hash_and_compare_by_value():
    a, b = _rec("A", cap=50.0), _rec("A", cap=50.0)
    assert a == b and a is not b
    assert hash(a) == hash(b)
    assert len({a, b, _rec("A", cap=60.0)}) == 2


def test_result_types_are_immutable_named_tuples(snapshots):
    report = track(snapshots, 2022)
    rates = fate_rates(report)
    sankey = sankey_flows(snapshots, 2022)
    results = (snapshots[0].load_report, report, report.fates[0], rates,
               rates.total, sankey, sankey.nodes[0], sankey.flows[0])
    fields = {
        "LoadReport": ("kept", "dropped", "dropped_reasons"),
        "TransitionReport": ("target_year", "earlier_vintage", "final_vintage",
                             "fates", "announced_mw"),
        "ProjectFate": ("ref_id", "name", "status_announced", "fate",
                        "capacity_mw", "dummy_mw", "final_status",
                        "final_launch_year", "operational_late", "early"),
        "FateRates": ("target_year", "total", "by_status"),
        "FateShares": ("success", "delayed", "disappeared"),
        "SankeyData": ("target_year", "stages", "nodes", "flows"),
        "SankeyNode": ("stage", "label", "capacity_gw"),
        "SankeyFlow": ("stage_from", "label_from", "stage_to", "label_to",
                       "capacity_gw"),
    }
    assert [type(r).__name__ for r in results] == list(fields)
    assert projects.ProjectFate._field_defaults == {
        "dummy_mw": 0.0, "final_status": None, "final_launch_year": None,
        "operational_late": False, "early": False}
    for result in results:
        cls = type(result)
        assert cls is getattr(projects, cls.__name__)
        assert cls._fields == fields[cls.__name__]
        assert repr(result).startswith(f"{cls.__name__}({cls._fields[0]}=")
        assert result == tuple(result) and result._replace() == result
        assert result._asdict() == dict(zip(cls._fields, result))
        for back in (pickle.loads(pickle.dumps(result)), copy.copy(result)):
            assert type(back) is cls and back == result
            assert repr(back) == repr(result)
        with pytest.raises(AttributeError):
            result.note = "x"
    assert report._replace(target_year=2023).target_year == 2023


def test_record_pickle_round_trip():
    rec = _rec("A", status=Status.DEMO, launch=2031, confidential=True)
    back = pickle.loads(pickle.dumps(rec))
    assert back == rec and type(back) is ProjectRecord
    assert repr(back) == repr(rec)


@pytest.mark.parametrize("field, bad, message", [
    pytest.param("capacity_mw", float("nan"), "positive and finite", id="nan"),
    pytest.param("capacity_mw", float("inf"), "positive and finite", id="inf"),
    pytest.param("capacity_mw", 0.0, "positive and finite", id="0.0"),
    pytest.param("capacity_mw", None, "positive and finite", id="None"),
    pytest.param("launch_year", None, "launch year is required", id="no-launch-year"),
])
def test_every_construction_path_validates_capacity(field, bad, message):
    # a record has the one shape load_snapshot keeps: a launch year and a
    # positive finite capacity
    rec = _rec("A")
    values = tuple({**rec._asdict(), field: bad}.values())
    for build in (lambda: rec._replace(**{field: bad}),
                  lambda: ProjectRecord._make(values),
                  lambda: ProjectRecord(*values),
                  # a record forged past __new__ is checked when unpickled
                  lambda: pickle.loads(pickle.dumps(
                      tuple.__new__(ProjectRecord, values)))):
        with pytest.raises(ValueError, match=message):
            build()


# ---------------------------------------------------------------------------
# Tracking
# ---------------------------------------------------------------------------

def test_bundled_cohort_fates(snapshots):
    report = track(snapshots, target_year=2022)
    assert report.announced_mw == pytest.approx(5000.0)
    # the middle vintage's expectation of the cohort is its Sankey stage
    assert sankey_flows(snapshots, 2022).stage_total_gw(1) * 1000.0 \
        == pytest.approx(3000.0)
    assert report.realized_mw == pytest.approx(100.0)
    assert report.fate_total_mw(Fate.DELAYED) == pytest.approx(1400.0)
    assert report.fate_total_mw(Fate.DISAPPEARED) == pytest.approx(3500.0)
    by_ref = {f.ref_id: f for f in report.fates}
    assert by_ref["GH-0003"].fate is Fate.SUCCESS
    assert by_ref["GH-0004"].fate is Fate.DISAPPEARED   # decommissioned
    assert by_ref["GH-0005"].fate is Fate.DISAPPEARED   # vanished entirely
    assert by_ref["GH-0001"].fate is Fate.DELAYED
    assert by_ref["GH-0002"].fate is Fate.DELAYED


def test_capacity_conservation_with_dummies(snapshots):
    report = track(snapshots, target_year=2022)
    total = sum(report.fate_total_mw(f) for f in Fate) + report.dummy_total_mw
    assert total == pytest.approx(report.announced_mw, abs=1e-6)


def test_dummy_adjustment_for_revised_capacity():
    earlier = Snapshot(2021, [_rec("A", cap=400.0)])
    final = Snapshot(2023, [_rec("A", cap=300.0, launch=2024)])
    report = track([earlier, final], 2022)
    (fate,) = report.fates
    assert fate.fate is Fate.DELAYED
    assert fate.capacity_mw == pytest.approx(300.0)
    assert fate.dummy_mw == pytest.approx(100.0)
    assert report.fate_total_mw(Fate.DELAYED) + report.dummy_total_mw \
        == pytest.approx(report.announced_mw)


def test_self_comparison_has_no_disappearances():
    snap = Snapshot(2022, [
        _rec("A", status=Status.OPERATIONAL, launch=2022, cap=10.0),
        _rec("B", status=Status.CONCEPT, launch=2022, cap=20.0),
        _rec("C", status=Status.FID_CONSTRUCTION, launch=2022, cap=30.0),
    ])
    report = track([snap, snap], 2022)
    fates = {f.ref_id: f.fate for f in report.fates}
    assert fates == {"A": Fate.SUCCESS, "B": Fate.DELAYED, "C": Fate.DELAYED}


def test_operational_late_is_delayed_but_flagged():
    earlier = Snapshot(2021, [_rec("A", cap=100.0)])
    final = Snapshot(2023, [_rec("A", status=Status.OPERATIONAL, launch=2023)])
    (fate,) = track([earlier, final], 2022).fates
    assert fate.fate is Fate.DELAYED
    assert fate.operational_late


def test_early_realisation_counts_as_success_with_flag():
    earlier = Snapshot(2021, [_rec("A", cap=100.0)])
    final = Snapshot(2023, [_rec("A", status=Status.OPERATIONAL, launch=2021)])
    (fate,) = track([earlier, final], 2022).fates
    assert fate.fate is Fate.SUCCESS
    assert fate.early


def test_tracking_is_order_invariant(snapshots):
    reordered = tuple(Snapshot(s.vintage_year, tuple(reversed(s.records)))
                      for s in snapshots)
    assert track(snapshots, target_year=2022) \
        == track(reordered, target_year=2022)


def test_vintage_ordering_enforced(snapshots):
    s21, s22, s23 = snapshots
    with pytest.raises(ValueError, match="non-decreasing"):
        track([s23, s22, s21], 2022)
    with pytest.raises(ValueError, match="after the final vintage"):
        track([s21, s22, s23], 2030)


@pytest.mark.parametrize("build", [track, sankey_flows], ids=["track", "sankey"])
def test_track_and_sankey_take_the_same_vintages(snapshots, build):
    s21, s22, s23 = snapshots
    with pytest.raises(ValueError, match="non-decreasing order, got 2023, 2022, 2021"):
        build([s23, s22, s21], 2022)
    with pytest.raises(ValueError, match="non-decreasing order, got 2021, 2023, 2022"):
        build([s21, s23, s22], 2022)
    with pytest.raises(ValueError, match="at least two snapshots"):
        build([s21], 2022)
    build([s21, s21, s23], 2022)     # a repeated vintage is in order


def test_middle_vintages_do_not_judge_fates(snapshots):
    s21, s22, s23 = snapshots
    assert track([s21, s23], 2022) == track([s21, s22, s23], 2022)
    # absent from the middle vintage, operational on time in the last one
    earlier = Snapshot(2021, [_rec("A", cap=100.0)])
    final = Snapshot(2023, [_rec("A", status=Status.OPERATIONAL, cap=100.0)])
    report = track([earlier, Snapshot(2022, []), final], 2022)
    (fate,) = report.fates
    assert fate.fate is Fate.SUCCESS
    assert report == track([earlier, final], 2022)


# ---------------------------------------------------------------------------
# Fate rates
# ---------------------------------------------------------------------------

def test_bundled_fate_shares(snapshots):
    rates = fate_rates(track(snapshots, target_year=2022))
    assert rates.total.success == pytest.approx(0.02)
    assert rates.total.delayed == pytest.approx(0.28)
    assert rates.total.disappeared == pytest.approx(0.70)
    fid = rates.by_status[Status.FID_CONSTRUCTION]
    assert fid.success == pytest.approx(100.0 / 1600.0)


def test_shares_sum_to_one(snapshots):
    rates = fate_rates(track(snapshots, target_year=2022))
    assert sum(rates.total) == pytest.approx(1.0, abs=1e-9)
    for shares in rates.by_status.values():
        assert sum(shares) == pytest.approx(1.0, abs=1e-9)


def test_single_successful_project():
    earlier = Snapshot(2021, [_rec("A", cap=100.0)])
    final = Snapshot(2023, [_rec("A", status=Status.OPERATIONAL, launch=2022)])
    rates = fate_rates(track([earlier, final], 2022))
    assert tuple(rates.total) == pytest.approx((1.0, 0.0, 0.0))


def test_equal_thirds_fixture():
    earlier = Snapshot(2021, [_rec("A", cap=1000.0), _rec("B", cap=1000.0),
                              _rec("C", cap=1000.0)])
    final = Snapshot(2023, [
        _rec("A", status=Status.OPERATIONAL, launch=2022, cap=1000.0),
        _rec("B", status=Status.CONCEPT, launch=2024, cap=1000.0),
    ])
    rates = fate_rates(track([earlier, final], 2022))
    assert tuple(rates.total) == pytest.approx((1 / 3, 1 / 3, 1 / 3))


def test_fates_without_capacity_have_no_shares():
    fates = (projects.ProjectFate("A", "one", Status.CONCEPT, Fate.DISAPPEARED, 0.0),)
    report = projects.TransitionReport(2022, 2021, 2023, fates, announced_mw=0.0)
    with pytest.raises(ValueError, match="^no announced capacity to compute fate shares$"):
        fate_rates(report)
    # any positive total has shares, however small
    small = report._replace(fates=(fates[0]._replace(capacity_mw=0.5),),
                            announced_mw=0.5)
    assert tuple(fate_rates(small).total) == (0.0, 0.0, 1.0)


def test_empty_cohort_is_error():
    empty = track([Snapshot(2021, []), Snapshot(2022, []), Snapshot(2023, [])], 2022)
    with pytest.raises(ValueError,
                       match="^vintage 2021 lists no project with launch year 2022$"):
        fate_rates(empty)


# ---------------------------------------------------------------------------
# Implementation gap and pipeline
# ---------------------------------------------------------------------------

def _gap_report(final_mw: float):
    earlier = Snapshot(2021, [_rec("A", cap=1200.0), _rec("B", cap=800.0)])
    final = Snapshot(2023, [_rec("A", status=Status.OPERATIONAL, cap=final_mw)])
    return track([earlier, final], 2022)


def test_implementation_gap_subtraction():
    assert _gap_report(500.0).implementation_gap_mw == pytest.approx(1500.0)
    assert _gap_report(2000.0).implementation_gap_mw == 0.0


def test_implementation_gap_floors_at_zero_when_capacity_grew():
    report = _gap_report(5000.0)
    assert report.realized_mw > report.announced_mw
    assert report.implementation_gap_mw == 0.0


def test_pipeline_sums_single_year():
    snap = Snapshot(2023, [_rec("A", cap=100.0, launch=2026),
                           _rec("B", cap=200.0, launch=2026),
                           _rec("C", cap=300.0, launch=2026)])
    assert pipeline_gw(snap, 2030) == pytest.approx(0.6)
    assert pipeline_gw(snap, 2026) - pipeline_gw(snap, 2025) == pytest.approx(0.6)


def test_bundled_pipeline_matches_trajectory_fixture(snapshots, pipeline_traj):
    snap = snapshots[2]
    assert pipeline_gw(snap, 2030) == pytest.approx(441.0, abs=1e-9)
    assert pipeline_gw(snap, 2023) == pytest.approx(1.86, abs=1e-9)
    for year in range(2024, 2031):
        assert pipeline_gw(snap, year) - pipeline_gw(snap, year - 1) == pytest.approx(
            pipeline_traj.addition(year), abs=1e-9)


def test_pipeline_groupings_sum_to_same_total(snapshots):
    counted = [r for r in snapshots[2].records
               if r.launch_year <= 2030 and r.status is not Status.DECOMMISSIONED]
    for key in ("launch_year", "status", "region"):
        groups: dict = {}
        for rec in counted:
            group = getattr(rec, key)
            groups[group] = groups.get(group, 0.0) + rec.capacity_mw / 1000.0
        assert sum(groups.values()) == pytest.approx(441.0, abs=1e-9)
    assert pipeline_gw(snapshots[2], 2030) == pytest.approx(441.0, abs=1e-9)


def test_pipeline_excludes_decommissioned():
    snap = Snapshot(2023, [_rec("A", cap=100.0, launch=2022),
                           _rec("B", cap=900.0, launch=2022,
                                status=Status.DECOMMISSIONED)])
    assert pipeline_gw(snap, 2030) == pytest.approx(0.1)


def test_empty_pipeline_is_a_float_zero():
    # reports print an int 0 as "0", not "0.0"
    total = pipeline_gw(Snapshot(2023, [_rec("A", launch=2031)]), 2030)
    assert total == 0.0 and type(total) is float


# ---------------------------------------------------------------------------
# Sankey flows
# ---------------------------------------------------------------------------

def test_bundled_sankey_stage_totals(snapshots):
    sankey = sankey_flows(snapshots, 2022)
    assert sankey.stage_total_gw(0) == pytest.approx(5.0)
    assert sankey.stage_total_gw(1) == pytest.approx(3.0)
    realized = [n for n in sankey.nodes if n.label == "realized"]
    assert sum(n.capacity_gw for n in realized) == pytest.approx(0.1)


def test_bundled_sankey_conserves_internal_nodes(snapshots):
    sankey = sankey_flows(snapshots, 2022)
    assert sankey.node_balance_errors(tol_gw=1e-9) == []


def test_node_balance_errors_name_an_unbalanced_status_node():
    # only stage 1 is internal: stage 0 is a source and stage 2 the outcome,
    # so its Operational node (in 1.0, out 0.0) is not checked
    node, flow = projects.SankeyNode, projects.SankeyFlow
    sankey = projects.SankeyData(
        2022, ("2021", "2022", "outcome"),
        nodes=(node(0, "Concept", 2.0), node(1, "Concept", 1.0),
               node(1, "FID_Construction", 1.0), node(1, "Operational", 1.0),
               node(2, "Operational", 1.0), node(2, "realized", 0.5)),
        flows=(flow(0, "Concept", 1, "Concept", 1.0),
               flow(0, "Concept", 1, "FID_Construction", 1.0),
               flow(1, "Concept", 2, "realized", 0.5),
               flow(1, "Operational", 2, "Operational", 1.0)))
    unbalanced = ["stage 1 FID_Construction: in 1.0 != out 0.0",
                  "stage 1 Operational: in 0.0 != out 1.0"]
    assert sankey.node_balance_errors() == [
        "stage 1 Concept: in 1.0 != out 0.5", *unbalanced]
    # a difference equal to the tolerance is not an error
    assert sankey.node_balance_errors(tol_gw=0.5) == unbalanced


def test_single_project_straight_through():
    rec = _rec("A", status=Status.OPERATIONAL, launch=2022, cap=150.0)
    snaps = [Snapshot(2021, [rec]), Snapshot(2023, [rec])]
    sankey = sankey_flows(snaps, 2022)
    assert sankey.stage_total_gw(0) == pytest.approx(0.15)
    assert sankey.stage_total_gw(1) == pytest.approx(0.15)
    flows = {(f.stage_from, f.label_from, f.stage_to, f.label_to): f.capacity_gw
             for f in sankey.flows}
    assert flows[(0, "Operational", 1, "Operational")] == pytest.approx(0.15)
    assert flows[(1, "Operational", 2, "realized")] == pytest.approx(0.15)


def test_sankey_needs_two_snapshots(snapshots):
    with pytest.raises(ValueError):
        sankey_flows(snapshots[:1], 2022)


def test_sankey_new_entrant_flows(snapshots):
    sankey = sankey_flows(snapshots, 2022)
    entering = [f for f in sankey.flows if f.label_from == "new_or_delayed_in"]
    assert sum(f.capacity_gw for f in entering) == pytest.approx(1.1)  # GH-0012


# ---------------------------------------------------------------------------
# Leaving the cohort: track and sankey_flows against Snapshot.by_ref()
# ---------------------------------------------------------------------------

_LEAVING = ("disappeared", "delayed_out", "moved_earlier")


def _leaving_vintages():
    """Three vintages for target year 2022 whose leavers cover every case:
    absent refs that sort before the first and after the last record of the
    next vintage, refs that are that first or last record, refs that move
    earlier or are delayed out, and refs that are decommissioned in or out of
    the cohort."""
    dec, op = Status.DECOMMISSIONED, Status.OPERATIONAL
    first = [_rec("A0", cap=1.0), _rec("C1", cap=2.0), _rec("C2", cap=4.0),
             _rec("C3", cap=8.0), _rec("C4", status=op, cap=16.0),
             _rec("C5", cap=32.0), _rec("C57", cap=256.0), _rec("C6", cap=64.0),
             _rec("Z9", cap=128.0)]
    middle = [_rec("B0", launch=2025, cap=3.0),                 # not in the cohort
              _rec("C1", launch=2023, cap=2.0),                 # delayed out
              _rec("C2", launch=2021, cap=5.0),                 # moved earlier
              _rec("C3", status=dec, launch=2024, cap=8.0),     # decommissioned, out
              _rec("C4", status=dec, cap=16.0),                 # decommissioned, in
              _rec("C5", cap=30.0),
              _rec("C6", status=op, cap=70.0),
              _rec("Y0", launch=2026, cap=3.0)]
    last = [_rec("C5", launch=2030, cap=30.0),                  # delayed out, sorts first
            _rec("C55", cap=5.0),                               # enters
            _rec("C57", status=dec, cap=256.0),                 # back, decommissioned
            _rec("C6", status=op, launch=2020, cap=70.0)]       # moved earlier, sorts last
    return [Snapshot(2021, first), Snapshot(2022, middle), Snapshot(2023, last)]


def _random_vintages(seed: int):
    rng = random.Random(seed)
    statuses = [s for s in Status if s not in (Status.DEMO, Status.OTHER)]
    refs = [f"R{i:03d}" for i in range(60)]
    return [Snapshot(vintage, [
        _rec(ref, status=rng.choice(statuses), launch=rng.choice((2021, 2022, 2022, 2023)),
             cap=float(rng.randint(1, 500)))
        for ref in refs if rng.random() < 0.7]) for vintage in (2021, 2022, 2023)]


def _leaving_flows(snapshots, target_year):
    """The flows of refs that leave the cohort, built from ``by_ref()`` in ref
    order, as ``sankey_flows`` books them."""
    flows = {}
    for i, (snap, nxt) in enumerate(zip(snapshots, snapshots[1:])):
        nxt_by_ref = nxt.by_ref()
        for rec in snap.records:
            fin = nxt_by_ref.get(rec.ref_id)
            if rec.launch_year != target_year or \
                    (fin is not None and fin.launch_year == target_year):
                continue
            to = ("disappeared" if fin is None
                  else "delayed_out" if fin.launch_year > target_year else "moved_earlier")
            key = (i, rec.status.value, i + 1, to)
            flows[key] = flows.get(key, 0.0) + rec.capacity_mw / 1000.0
    return flows


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_leavers_match_a_full_lookup(seed):
    snaps = _leaving_vintages() if seed is None else _random_vintages(seed)
    sankey = sankey_flows(snaps, 2022)
    booked = {(f.stage_from, f.label_from, f.stage_to, f.label_to): f.capacity_gw
              for f in sankey.flows if f.label_to in _LEAVING}
    assert booked == _leaving_flows(snaps, 2022)
    assert sankey.node_balance_errors() == []

    final = snaps[-1].by_ref()
    report = track(snaps, 2022)
    cohort = [r for r in snaps[0].records if r.launch_year == 2022]
    assert [f.ref_id for f in report.fates] == [r.ref_id for r in cohort]
    for fate in report.fates:
        fin = final.get(fate.ref_id)
        assert (fate.final_status, fate.final_launch_year) == \
            ((fin.status, fin.launch_year) if fin else (None, None))
        assert (fate.fate is Fate.DISAPPEARED) == \
            (fin is None or fin.status is Status.DECOMMISSIONED)


def test_leavers_of_the_built_vintages():
    snaps = _leaving_vintages()
    assert _leaving_flows(snaps, 2022) == {
        (0, "Concept", 1, "disappeared"): 1.0 / 1000.0 + 256.0 / 1000.0 + 128.0 / 1000.0,
        (0, "Concept", 1, "delayed_out"): 2.0 / 1000.0 + 8.0 / 1000.0,
        (0, "Concept", 1, "moved_earlier"): 4.0 / 1000.0,
        (1, "Concept", 2, "delayed_out"): 30.0 / 1000.0,
        (1, "Decommissioned", 2, "disappeared"): 16.0 / 1000.0,
        (1, "Operational", 2, "moved_earlier"): 70.0 / 1000.0,
    }
    fates = {f.ref_id: f.fate for f in track(snaps, 2022).fates}
    assert fates == {"A0": Fate.DISAPPEARED, "C1": Fate.DISAPPEARED,
                     "C2": Fate.DISAPPEARED, "C3": Fate.DISAPPEARED,
                     "C4": Fate.DISAPPEARED, "C5": Fate.DELAYED,
                     "C57": Fate.DISAPPEARED, "C6": Fate.SUCCESS,
                     "Z9": Fate.DISAPPEARED}
