"""Acceptance suite: every headline result at its stated tolerance.

Each criterion records a PASS/FAIL line that the terminal summary prints
after the run (see conftest). The tracking reproduction of real-database
failure rates is optional and gated on ``H2GAP_IEA_DIR`` pointing at real
snapshot exports, which cannot be redistributed with the package.
"""

import math
import os

import pytest

from h2gap import (
    CapacityTrajectory,
    Fate,
    ParamSet,
    Snapshot,
    Status,
    TimeAnchoredSeries,
    annuity_factor,
    capacity_supported_by_budget,
    cost_gap,
    cumulative_subsidies,
    demand_supported_additions,
    fate_rates,
    fixtures,
    investment_costs,
    lcoh,
    load_snapshot,
    parity_year,
    production_to_capacity,
    stats,
    track,
)
from h2gap.projects import ProjectRecord


def _rec(ref, status=Status.CONCEPT, launch=2022, cap=100.0):
    return ProjectRecord(ref_id=ref, name=ref, country="DEU", region="Europe",
                         status=status, launch_year=launch, capacity_mw=cap)


def test_c01_learning_curve_2030_cost(pipeline_traj, central, acceptance_check):
    total = investment_costs(2030, pipeline_traj, central).total
    acceptance_check(
        "1 learning curve", abs(total - 701.0) <= 0.01 * 701.0,
        f"investment cost 2030 = {total:.1f} $/kW (target 701 +-1%)")


def test_c02_cost_gap_2030_without_carbon(pipeline_traj, central, acceptance_check):
    gap = cost_gap(2030, pipeline_traj, central, carbon_pricing=False)
    acceptance_check(
        "2 cost gap 2030 carbon off", abs(gap - 107.0) <= 2.0,
        f"gap = {gap:.1f} $/MWh (target 107 +-2)")


def test_c03_cost_gap_2030_with_carbon(pipeline_traj, central, acceptance_check):
    gap = cost_gap(2030, pipeline_traj, central, carbon_pricing=True)
    acceptance_check(
        "3 cost gap 2030 carbon on", abs(gap - 68.0) <= 2.0,
        f"gap = {gap:.1f} $/MWh (target 68 +-2)")


def test_c04_cost_gap_2024(pipeline_traj, central, acceptance_check):
    off = cost_gap(2024, pipeline_traj, central, carbon_pricing=False)
    on = cost_gap(2024, pipeline_traj, central, carbon_pricing=True)
    ok = abs(off - 160.0) <= 16.0 and abs(on - 129.0) <= 12.9
    acceptance_check(
        "4 cost gap 2024", ok,
        f"off = {off:.1f} (target 160 +-10%), on = {on:.1f} (target 129 +-10%)")


def test_c05_parity_years(extended_traj, central, acceptance_check):
    on = parity_year(extended_traj, central, carbon_pricing=True, horizon=2045)
    off = parity_year(extended_traj, central, carbon_pricing=False, horizon=2045)
    ok = on is not None and abs(on - 2043) <= 1 and off is None
    acceptance_check(
        "5 parity years", ok,
        f"carbon on parity {on} (target 2043 +-1), carbon off {off} "
        "(target none through 2045)")


def test_c06_central_subsidy_requirements(offset_traj, central, acceptance_check):
    s_off = cumulative_subsidies(offset_traj, central, False, 2045)
    s_on = cumulative_subsidies(offset_traj, central, True, 2045)
    peak_year, peak = s_on.peak()
    plateau = max(s_off.annual(y) for y in range(2030, 2040))
    ok = (abs(s_off.total_busd - 1600.0) <= 160.0
          and abs(s_on.total_busd - 900.0) <= 90.0
          and peak_year == 2030 and abs(peak - 71.0) <= 7.1
          and plateau > 100.0)
    acceptance_check(
        "6 cumulative subsidies", ok,
        f"off = {s_off.total_busd:.0f} $bn (1600 +-10%), "
        f"on = {s_on.total_busd:.0f} $bn (900 +-10%), "
        f"peak {peak:.1f} $bn in {peak_year} (71 +-10% in 2030), "
        f"2030s plateau {plateau:.1f} $bn (> 100)")


def test_c07_sensitivity_envelope(pipeline_traj, extended_traj, progressive,
                                  conservative, acceptance_check):
    results = {}
    for params in (progressive, conservative):
        sup = demand_supported_additions(params, pipeline_traj)
        traj = pipeline_traj.with_supported(sup)
        results[params.scenario_id] = (
            cumulative_subsidies(traj, params, False, 2045).total_busd,
            cumulative_subsidies(traj, params, True, 2045).total_busd)
    prog_off, prog_on = results["progressive"]
    cons_off, cons_on = results["conservative"]
    prog_parity = parity_year(extended_traj, progressive, True, 2045)
    ok = (abs(prog_off - 1200.0) <= 180.0 and abs(cons_off - 2600.0) <= 390.0
          and abs(prog_on - 300.0) <= 45.0 and abs(cons_on - 2100.0) <= 315.0
          and prog_parity is not None and abs(prog_parity - 2034) <= 1)
    acceptance_check(
        "7 sensitivity envelope", ok,
        f"off bracket = [{prog_off:.0f}, {cons_off:.0f}] $bn "
        "(targets 1200/2600 +-15%), "
        f"on bracket = [{prog_on:.0f}, {cons_on:.0f}] $bn (targets 300/2100 +-15%), "
        f"progressive parity {prog_parity} (2034 +-1)")


def test_c08_budget_inversion(pipeline_traj, central, progressive, conservative,
                              acceptance_check):
    got = {p.scenario_id:
           capacity_supported_by_budget(308.0, p, False, pipeline_traj)
           .subsidy_supported_gw
           for p in (central, progressive, conservative)}
    ok = (abs(got["central"] - 56.0) <= 0.2 * 56.0
          and 34.0 <= got["progressive"] <= 72.0
          and 34.0 <= got["conservative"] <= 72.0)
    acceptance_check(
        "8 budget inversion", ok,
        f"central = {got['central']:.1f} GW (56 +-20%), sensitivity = "
        f"[{got['conservative']:.1f}, {got['progressive']:.1f}] GW (within [34, 72])")


def test_c09_demand_side_offset(pipeline_traj, central, acceptance_check):
    supported = sum(demand_supported_additions(central, pipeline_traj, 7.0).values())
    oracle = production_to_capacity(7.0, central.full_load_hours,
                                    central.efficiency.at(2030))
    ok = abs(supported - 88.0) <= 1.0 and supported == pytest.approx(oracle, rel=1e-12)
    acceptance_check(
        "9 demand-side offset", ok,
        f"7 Mt/yr -> {supported:.1f} GW (target 88 +-1, conversion oracle "
        f"{oracle:.1f})")


def test_c10_scenario_statistics(acceptance_check):
    st = stats(fixtures.builtin_requirements(), 2030, exclude_outliers=True)
    ok = (st.n == 15 and st.median == 350.0 and st.q1 == 203.0 and st.q3 == 655.0
          and st.minimum == 30.0 and st.maximum == 1016.0)
    acceptance_check(
        "10 scenario statistics", ok,
        f"n={st.n}, median={st.median:.0f}, quartiles={st.q1:.0f}/{st.q3:.0f}, "
        f"range={st.minimum:.0f}-{st.maximum:.0f} (exact targets)")


def test_c11_tracking_property_suite(snapshots, acceptance_check):
    report = track(snapshots, target_year=2022)
    conserved = abs(sum(report.fate_total_mw(f) for f in Fate)
                    + report.dummy_total_mw - report.announced_mw) <= 1e-6
    rates = fate_rates(report)
    sums_ok = abs(sum(rates.total) - 1.0) <= 1e-9 and all(
        abs(sum(s) - 1.0) <= 1e-9 for s in rates.by_status.values())
    reordered = tuple(Snapshot(s.vintage_year, tuple(reversed(s.records)))
                      for s in snapshots)
    order_ok = track(reordered, target_year=2022) == report
    shares_ok = (rates.total.success == pytest.approx(0.02)
                 and rates.total.delayed == pytest.approx(0.28)
                 and rates.total.disappeared == pytest.approx(0.70))
    ok = conserved and sums_ok and order_ok and shares_ok
    acceptance_check(
        "11 tracking properties", ok,
        f"conservation {conserved}, share sums {sums_ok}, order invariance "
        f"{order_ok}, fixture shares "
        f"{tuple(round(x, 3) for x in rates.total)} "
        "(target (0.02, 0.28, 0.70))")


@pytest.mark.skipif("H2GAP_IEA_DIR" not in os.environ,
                    reason="real project-database exports are not redistributable; "
                           "set H2GAP_IEA_DIR to run")
def test_c11_optional_real_database_rates():
    data_dir = os.environ["H2GAP_IEA_DIR"]
    snaps = [load_snapshot(os.path.join(data_dir, f"snap{v}.csv"), v)
             for v in (2021, 2022, 2023)]
    rates = fate_rates(track(snaps, target_year=2022))
    assert rates.total.success == pytest.approx(0.02, abs=0.005)
    assert rates.total.delayed == pytest.approx(0.42, abs=0.01)
    assert rates.total.disappeared == pytest.approx(0.56, abs=0.01)
    assert rates.by_status[Status.FID_CONSTRUCTION].success \
        == pytest.approx(0.15, abs=0.01)


def test_c12_numerical_property_suite(pipeline_traj, central, oracle, acceptance_check):
    # annuity zero-rate limit
    annuity_ok = all(annuity_factor(0.0, n) == pytest.approx(1.0 / n, rel=1e-12)
                     for n in (1, 5, 10, 15, 40))
    # two-annuity formula collapses when the lifetimes coincide
    import dataclasses
    merged = dataclasses.replace(
        central, stack_lifetime=TimeAnchoredSeries({2024: central.payback_period}))
    collapse_ok = True
    for year in (2024, 2030):
        b = lcoh(year, pipeline_traj, merged)
        inv = investment_costs(year, pipeline_traj, merged)
        a = annuity_factor(merged.cost_of_capital, merged.payback_period)
        single = ((a + merged.fom_share) * inv.total / merged.full_load_hours
                  * 1000.0 + merged.electricity_price.at(year)) \
            / merged.efficiency.at(year) + merged.transport_storage
        collapse_ok &= math.isclose(b.total, single, rel_tol=0, abs_tol=1e-9)
    # per-cohort ledger equals the brute-force oracle on a small instance
    additions = {2024: 1.0, 2025: 0.5, 2026: 2.0, 2027: 1.5, 2028: 0.25}
    ledger = oracle.Reference(central, 2023, 1.86, additions, {}, True).annual(2045)
    schedule = cumulative_subsidies(CapacityTrajectory(2023, 1.86, additions),
                                    central, True, 2045)
    ledger_ok = schedule.annual_busd == pytest.approx(tuple(ledger.values()), rel=1e-9)
    ok = annuity_ok and collapse_ok and ledger_ok
    acceptance_check(
        "12 numerical properties", ok,
        f"annuity limit {annuity_ok}, single-annuity collapse {collapse_ok}, "
        f"cohort ledger vs oracle {ledger_ok}")
