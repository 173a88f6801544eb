import numpy as np
import pytest

from h2gap import (
    ScenarioRequirement,
    ambition_gap,
    load_requirements,
    median_trajectory,
    stats,
)
from h2gap import fixtures
from h2gap.units import SnapshotDataError


def _req(capacity, year=2030, i=[0], outlier=False):
    i[0] += 1
    return ScenarioRequirement(source=f"S{i[0]:02d}", scenario_name="1p5C",
                               year=year, capacity_gw=capacity, outlier=outlier)


# ---------------------------------------------------------------------------
# stats
# ---------------------------------------------------------------------------

def test_bundled_2030_distribution():
    st = stats(fixtures.builtin_requirements(), 2030, exclude_outliers=True)
    assert st.n == 15
    assert st.median == pytest.approx(350.0)
    assert st.q1 == pytest.approx(203.0)
    assert st.q3 == pytest.approx(655.0)
    assert st.minimum == pytest.approx(30.0)
    assert st.maximum == pytest.approx(1016.0)


def test_bundled_2030_with_outlier():
    st = stats(fixtures.builtin_requirements(), 2030, exclude_outliers=False)
    assert st.n == 16
    assert st.maximum == pytest.approx(1700.0)


def test_single_scenario_collapses_all_statistics():
    st = stats([_req(123.0)], 2030)
    assert (st.minimum, st.q1, st.median, st.q3, st.maximum) \
        == (123.0, 123.0, 123.0, 123.0, 123.0)


def test_two_scenarios_median_is_midpoint():
    st = stats([_req(100.0), _req(300.0)], 2030)
    assert st.median == pytest.approx(200.0)


def test_empty_selection_is_error():
    with pytest.raises(ValueError):
        stats([_req(100.0, year=2040)], 2030)
    with pytest.raises(ValueError):
        stats([_req(100.0, outlier=True)], 2030, exclude_outliers=True)


def test_stats_ordering_invariant():
    st = stats([_req(c) for c in (100, 300, 200, 500, 50)], 2030)
    assert st.minimum <= st.q1 <= st.median <= st.q3 <= st.maximum


def test_permutation_invariance_and_scale_equivariance():
    rng = np.random.default_rng(1)
    values = list(rng.uniform(10, 900, size=11))
    base = stats([_req(v) for v in values], 2030)
    shuffled = list(values)
    rng.shuffle(shuffled)
    perm = stats([_req(v) for v in shuffled], 2030)
    scaled = stats([_req(3.0 * v) for v in values], 2030)
    for field in ("minimum", "q1", "median", "q3", "maximum"):
        assert getattr(perm, field) == pytest.approx(getattr(base, field))
        assert getattr(scaled, field) == pytest.approx(3.0 * getattr(base, field))


# ---------------------------------------------------------------------------
# ambition gap
# ---------------------------------------------------------------------------

def test_gap_closed_when_pipeline_exceeds_median():
    assert ambition_gap(350.0, 441.0) == pytest.approx(-91.0)


def test_gap_open_against_smaller_pipeline():
    assert ambition_gap(350.0, 153.0) == pytest.approx(197.0)


def test_gap_zero_at_parity():
    assert ambition_gap(275.0, 275.0) == 0.0


# ---------------------------------------------------------------------------
# median trajectory
# ---------------------------------------------------------------------------

def test_flat_targets_give_zero_additions():
    traj = median_trajectory(441.0, 441.0, 441.0, 2050)
    assert all(traj.addition(y) == 0.0 for y in range(2031, 2051))


def test_uniform_slope():
    traj = median_trajectory(441.0, 1441.0, 2441.0, 2050)
    assert all(traj.addition(y) == pytest.approx(100.0) for y in range(2031, 2051))


def test_cumulative_reproduces_anchor_points():
    traj = median_trajectory(441.0, 2000.0, 4000.0, 2050)
    assert traj.cumulative(2030) == pytest.approx(441.0)
    assert traj.cumulative(2040) == pytest.approx(2000.0, abs=1e-9)
    assert traj.cumulative(2050) == pytest.approx(4000.0, abs=1e-9)


def test_additions_match_finite_differences_of_linear_path():
    reqs = fixtures.builtin_requirements()
    m40 = stats(reqs, 2040).median
    m50 = stats(reqs, 2050).median
    traj = median_trajectory(441.0, m40, m50, 2055)
    # oracle: finite differences of the piecewise-linear cumulative path
    years = np.arange(2030, 2056)
    cumulative = np.interp(years, [2030, 2040, 2050], [441.0, m40, m50])
    for year, expected in zip(years[1:], np.diff(cumulative)):
        assert traj.addition(int(year)) == pytest.approx(expected, abs=1e-9)


def test_decreasing_targets_rejected():
    with pytest.raises(ValueError):
        median_trajectory(441.0, 300.0, 4000.0, 2050)
    with pytest.raises(ValueError):
        median_trajectory(441.0, 2000.0, 1500.0, 2050)
    with pytest.raises(ValueError):
        median_trajectory(441.0, 2000.0, 4000.0, 2029)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------

def test_production_rows_convert_at_fixed_assumptions():
    reqs = fixtures.builtin_requirements()
    row = next(r for r in reqs if r.source == "Study07" and r.year == 2050)
    # 300 Mt/yr at 3750 h and 69%
    assert row.capacity_gw == pytest.approx(300.0 * 33.33e3 / (3750.0 * 0.69))


def test_duplicate_key_rejected(tmp_path):
    path = tmp_path / "reqs.csv"
    path.write_text(
        "source,scenario_name,year,capacity_gw,production_mt_per_yr,outlier,approximate\n"
        "A,x,2030,100,,false,false\n"
        "A,x,2030,200,,false,false\n")
    with pytest.raises(ValueError, match="duplicate"):
        load_requirements(path)


def test_exactly_one_quantity_column_required(tmp_path):
    path = tmp_path / "reqs.csv"
    path.write_text(
        "source,scenario_name,year,capacity_gw,production_mt_per_yr,outlier,approximate\n"
        "A,x,2030,100,5,false,false\n")
    with pytest.raises(ValueError, match="exactly one"):
        load_requirements(path)
    path.write_text(
        "source,scenario_name,year,capacity_gw,production_mt_per_yr,outlier,approximate\n"
        "A,x,2030,,,false,false\n")
    with pytest.raises(ValueError, match="exactly one"):
        load_requirements(path)


def test_nonpositive_capacity_rejected():
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ScenarioRequirement("A", "x", 2030, bad)


@pytest.mark.parametrize("row", [
    "A,x,20x0,100,,false,false",    # bad year
    "A,x,2030,nan,,false,false",    # non-finite capacity
    "A,x,2030,,inf,false,false",    # non-finite production
    "A,x,2030,100,,maybe,false",    # bad boolean
])
def test_row_errors_name_their_line(tmp_path, row):
    path = tmp_path / "reqs.csv"
    path.write_text(
        "source,scenario_name,year,capacity_gw,production_mt_per_yr,outlier,approximate\n"
        f"B,y,2030,50,,false,false\n{row}\n")
    with pytest.raises(SnapshotDataError) as exc:
        load_requirements(path)
    assert exc.value.path == str(path)
    assert [ln for ln, _ in exc.value.row_errors] == [3]
