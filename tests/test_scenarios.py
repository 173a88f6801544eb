import pickle

import numpy as np
import pytest

from h2gap import (
    CapacityTrajectory,
    ScenarioRequirement,
    ambition_gap,
    load_requirements,
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
# median-extended pipeline
# ---------------------------------------------------------------------------

PIPE_2030 = CapacityTrajectory(2029, 41.0, {2030: 400.0})   # 441 GW by 2030


def _medians(m40, m50):
    """Requirements whose 2040 and 2050 medians are ``m40`` and ``m50``."""
    return [_req(m40, year=2040), _req(m50, year=2050)]


def _extend(m40, m50, horizon=2050, pipe=PIPE_2030):
    return fixtures.median_extended_pipeline(horizon, pipeline=pipe,
                                             requirements=_medians(m40, m50))


def test_flat_targets_give_zero_additions():
    traj = _extend(441.0, 441.0)
    assert traj.build_years == list(range(2030, 2051))
    assert all(traj.addition(y) == 0.0 for y in range(2031, 2051))


def test_uniform_slope():
    traj = _extend(1441.0, 2441.0)
    assert all(traj.addition(y) == pytest.approx(100.0) for y in range(2031, 2051))


def test_cumulative_reproduces_anchor_points():
    traj = _extend(2000.0, 4000.0)
    assert traj.cumulative(2030) == pytest.approx(441.0)
    assert traj.cumulative(2040) == pytest.approx(2000.0, abs=1e-9)
    assert traj.cumulative(2050) == pytest.approx(4000.0, abs=1e-9)


def test_additions_match_finite_differences_of_linear_path():
    reqs = fixtures.builtin_requirements()
    m40 = stats(reqs, 2040).median
    m50 = stats(reqs, 2050).median
    traj = fixtures.median_extended_pipeline(2055, pipeline=PIPE_2030,
                                             requirements=reqs)
    # oracle: finite differences of the piecewise-linear cumulative path
    years = np.arange(2030, 2056)
    cumulative = np.interp(years, [2030, 2040, 2050], [441.0, m40, m50])
    for year, expected in zip(years[1:], np.diff(cumulative)):
        assert traj.addition(int(year)) == pytest.approx(expected, abs=1e-9)
    assert traj.last_year == 2055
    assert all(traj.addition(y) == 0.0 for y in range(2051, 2056))


def test_decreasing_targets_rejected():
    for m40, m50 in ((300.0, 4000.0), (2000.0, 1500.0)):
        with pytest.raises(ValueError, match="cumulative targets must be "
                                             "non-decreasing: 441.0 \\(2030\\)"):
            _extend(m40, m50)


def test_a_pipeline_that_reaches_the_horizon_is_not_extended():
    # nothing to continue, so the requirements are not consulted at all
    short = CapacityTrajectory(2023, 1.86, {2024: 11.0, 2027: 66.0})
    for pipe, horizon in ((PIPE_2030, 2030), (short, 2029), (short, 2030)):
        assert fixtures.median_extended_pipeline(horizon, pipeline=pipe,
                                                 requirements=[]) is pipe


def test_a_short_pipeline_stays_flat_until_2030():
    short = CapacityTrajectory(2023, 1.86, {2024: 11.0, 2027: 66.0})
    traj = _extend(1000.0, 1500.0, horizon=2035, pipe=short)
    assert traj.build_years == [2024, 2027, *range(2031, 2036)]
    assert traj.cumulative(2030) == short.cumulative(2027) == 1.86 + 11.0 + 66.0
    assert traj.addition(2031) == (1000.0 - 78.86) / 10.0


def test_supported_capacity_carries_over():
    pipe = PIPE_2030.with_supported({2030: 150.0})
    traj = _extend(1441.0, 2441.0, pipe=pipe)
    assert traj.supported(2030) == 150.0
    assert traj.net_addition(2030) == 250.0
    assert traj.net_addition(2031) == traj.addition(2031)


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
    good = ScenarioRequirement("A", "x", 2030, 100.0)
    for bad in (0.0, -1.0, float("nan"), float("inf")):
        values = ("A", "x", 2030, bad, False, False)
        for build in (lambda: ScenarioRequirement(*values),
                      lambda: ScenarioRequirement._make(values),
                      lambda: good._replace(capacity_gw=bad),
                      # a requirement forged past __new__ is checked when unpickled
                      lambda: pickle.loads(pickle.dumps(
                          tuple.__new__(ScenarioRequirement, values)))):
            with pytest.raises(ValueError) as exc:
                build()
            assert str(exc.value) == (
                "requirement capacity must be positive and finite: ScenarioRequirement("
                f"source='A', scenario_name='x', year=2030, capacity_gw={bad!r}, "
                "outlier=False, approximate=False)")


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
