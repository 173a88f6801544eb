import math
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from h2gap import (
    CapacityTrajectory,
    ParamSet,
    TimeAnchoredSeries,
    annual_subsidies,
    capacity_supported_by_budget,
    cost_gap,
    cumulative_subsidies,
    demand_supported_additions,
    fixtures,
    gas_cost,
    lcoh,
    parity_year,
)
from h2gap.costs import annuity_factor
from h2gap.subsidies import _unit_costs
from h2gap.units import DEFAULT_POLICY_MT, capacity_to_production, production_to_capacity


# ---------------------------------------------------------------------------
# Gas cost
# ---------------------------------------------------------------------------

def test_gas_price_without_carbon(central):
    assert gas_cost(2024, central, carbon_pricing=False) == pytest.approx(19.0)
    assert gas_cost(2035, central, carbon_pricing=False) == pytest.approx(22.0)


def test_carbon_component_is_intensity_times_price(central):
    g = gas_cost(2030, central, carbon_pricing=True)
    assert g - gas_cost(2030, central, carbon_pricing=False) \
        == pytest.approx(0.265 * 149.0)
    assert g == pytest.approx(22.0 + 0.265 * 149.0)


def test_zero_carbon_price_equals_flag_off(central, pipeline_traj):
    zeroed = central.replace(co2_price=TimeAnchoredSeries({2024: 0.0}))
    for year in (2024, 2030, 2040):
        assert cost_gap(year, pipeline_traj, zeroed, True) \
            == pytest.approx(cost_gap(year, pipeline_traj, zeroed, False))


def test_gas_cost_before_window_is_error(central):
    with pytest.raises(ValueError):
        gas_cost(2023, central, carbon_pricing=False)
    # a gas series that starts earlier does not extend the window
    early = central.replace(gas_price=TimeAnchoredSeries({2020: 19.0}))
    with pytest.raises(ValueError, match="defined from 2024 onwards, got 2023"):
        gas_cost(2023, early, carbon_pricing=False)


# ---------------------------------------------------------------------------
# Cost gap and parity
# ---------------------------------------------------------------------------

def test_gap_is_lcoh_minus_gas(central, pipeline_traj):
    for year, carbon in ((2024, False), (2030, True)):
        expected = lcoh(year, pipeline_traj, central).total \
            - gas_cost(year, central, carbon)
        assert cost_gap(year, pipeline_traj, central, carbon) \
            == pytest.approx(expected, abs=1e-12)


def test_gap_dominance_with_carbon_price(central, extended_traj):
    for year in range(2024, 2046):
        assert cost_gap(year, extended_traj, central, True) \
            <= cost_gap(year, extended_traj, central, False)


def test_parity_years_on_bundled_trajectory(central, progressive, conservative,
                                            extended_traj):
    assert parity_year(extended_traj, central, True, 2045) == 2043
    assert parity_year(extended_traj, central, False, 2045) is None
    assert parity_year(extended_traj, progressive, True, 2045) in (2034, 2035)
    assert parity_year(extended_traj, conservative, True, 2045) is None


def test_parity_is_the_first_year_without_a_positive_gap():
    toy = _toy_params()
    traj = CapacityTrajectory(2023, 1.86, {2024: 1.0})
    flat = lcoh(2024, traj, toy).total      # no capex: the same LCOH every year
    at_par = toy.replace(gas_price=TimeAnchoredSeries({2024: flat}))
    assert cost_gap(2030, traj, at_par, False) == 0.0
    assert parity_year(traj, at_par, False, 2030) == 2024
    below = toy.replace(
        gas_price=TimeAnchoredSeries({2024: math.nextafter(flat, 0.0)}))
    assert parity_year(traj, below, False, 2030) is None


def test_parity_respects_horizon(central, extended_traj):
    assert parity_year(extended_traj, central, True, 2040) is None
    # parity falls in 2043: a horizon one year short must not find it
    assert parity_year(extended_traj, central, True, 2042) is None
    assert parity_year(extended_traj, central, True, 2043) == 2043


@pytest.mark.parametrize("first_years", [
    lambda traj, params, horizon: parity_year(traj, params, True, horizon),
    lambda traj, params, horizon: cumulative_subsidies(traj, params, True, horizon).years,
], ids=["parity_year", "cumulative_subsidies"])
def test_horizon_starts_in_2024(central, pipeline_traj, first_years):
    with pytest.raises(ValueError, match="must be >= 2024"):
        first_years(pipeline_traj, central, 2023)
    assert first_years(pipeline_traj, central, 2024) in (None, (2024,))


# ---------------------------------------------------------------------------
# Demand-side offset
# ---------------------------------------------------------------------------

def test_policy_volume_converts_via_capacity_formula(central, pipeline_traj):
    supported = demand_supported_additions(central, pipeline_traj, policy_mt=7.0)
    expected_total = 7.0 * 33.33e3 / (3750.0 * central.efficiency.at(2030))
    assert sum(supported.values()) == pytest.approx(expected_total, rel=1e-12)
    assert set(supported) == set(range(2024, 2031))


def test_zero_policy_gives_zeros(central, pipeline_traj):
    supported = demand_supported_additions(central, pipeline_traj, policy_mt=0.0)
    assert all(v == 0.0 for v in supported.values())


def test_offset_proportional_to_additions(central):
    flat = CapacityTrajectory(2023, 1.86, {y: 50.0 for y in range(2024, 2031)})
    supported = demand_supported_additions(central, flat, policy_mt=7.0)
    values = list(supported.values())
    assert all(v == pytest.approx(values[0]) for v in values)
    shaped = CapacityTrajectory(2023, 1.86, {2024: 10.0, 2025: 30.0, 2026: 60.0})
    sup = demand_supported_additions(central, shaped, policy_mt=1.0)
    assert sup[2025] == pytest.approx(3.0 * sup[2024])
    assert sup[2026] == pytest.approx(6.0 * sup[2024])


def test_offset_larger_than_pipeline_is_error(central, pipeline_traj):
    with pytest.raises(ValueError, match="exceeds"):
        demand_supported_additions(central, pipeline_traj, policy_mt=50.0)
    # a policy that carries the whole window pipeline does not exceed it
    total = production_to_capacity(7.0, central.full_load_hours, central.efficiency.at(2030))
    exact = CapacityTrajectory(2023, 1.86, {2024: total})
    assert demand_supported_additions(central, exact, policy_mt=7.0) == {2024: total}


def test_supported_never_exceeds_additions(central, offset_traj):
    # in the second pipeline the 2024 share's product rounds one ulp above its
    # addition, which the trajectory's 1e-9 tolerance would let through
    additions = {2024: 50.22385584334831, 2025: 0.001, 2026: 0.001, 2027: 0.001,
                 2028: 0.001, 2029: 0.1, 2030: 0.001}
    skewed = CapacityTrajectory(2023, 1.86, additions)
    skewed = skewed.with_supported(
        demand_supported_additions(central, skewed, policy_mt=4.020419402427688))
    for traj in (offset_traj, skewed):
        for year in traj.build_years:
            assert traj.supported(year) <= traj.addition(year)


# ---------------------------------------------------------------------------
# Annual subsidies
# ---------------------------------------------------------------------------

def _toy_params(payback=15.0):
    """Flat world: LCOH = 120 (no capex), gas = 20, so a 100 $/MWh gap."""
    return ParamSet(
        scenario_id="toy", investment_2023=0.0, stack_share_2023=0.25,
        learning_rate_stack=0.18, learning_rate_bop=0.10,
        stack_lifetime=TimeAnchoredSeries({2024: 10.0}), payback_period=payback,
        full_load_hours=3750.0, cost_of_capital=0.08,
        efficiency=TimeAnchoredSeries({2024: 0.69}), fom_share=0.03,
        transport_storage=20.0,
        electricity_price=TimeAnchoredSeries({2024: 69.0}),
        gas_price=TimeAnchoredSeries({2024: 20.0}),
        co2_price=TimeAnchoredSeries({2024: 0.0}),
        emission_intensity=0.265)


def test_no_additions_no_subsidies(central):
    empty = CapacityTrajectory(2023, 1.86, {2024: 0.0})
    for year in range(2024, 2040):
        assert annual_subsidies(year, empty, central, False) == 0.0


def test_single_cohort_flat_gap_pays_constant_for_payback_years():
    params = _toy_params()
    traj = CapacityTrajectory(2023, 1.86, {2024: 1.0})
    # 1 GW * 3750 h * 0.69 * 100 $/MWh = 0.259 $bn/yr
    for year in range(2024, 2039):
        assert annual_subsidies(year, traj, params, False) \
            == pytest.approx(0.25875, abs=1e-9)
    assert annual_subsidies(2039, traj, params, False) == 0.0   # window closed
    schedule = cumulative_subsidies(traj, params, False, 2045)
    assert schedule.total_busd == pytest.approx(15 * 0.25875, rel=1e-12)


def test_cohort_window_is_exactly_payback_years():
    params = _toy_params(payback=3.0)
    traj = CapacityTrajectory(2023, 1.86, {2025: 2.0})
    paying = [y for y in range(2024, 2035)
              if annual_subsidies(y, traj, params, False) > 0.0]
    assert paying == [2025, 2026, 2027]


def test_lcoh_locked_at_build_year(central, pipeline_traj):
    # the 2024 cohort keeps paying 2024-vintage costs against later gas prices
    lcoh_2024 = lcoh(2024, pipeline_traj, central).total
    expected = pipeline_traj.addition(2024) * 3750.0 * central.efficiency.at(2024) \
        * (lcoh_2024 - gas_cost(2026, central, False)) * 1e-6
    only_2024 = CapacityTrajectory(2023, 1.86, {2024: pipeline_traj.addition(2024)})
    got = annual_subsidies(2026, only_2024, central, False)
    # same cumulative capacity in 2024, so same locked LCOH
    assert only_2024.cumulative(2024) == pipeline_traj.cumulative(2024)
    assert got == pytest.approx(expected, rel=1e-12)


def test_negative_gap_cohorts_pay_nothing():
    params = _toy_params()
    cheap = params.replace(
        electricity_price=TimeAnchoredSeries({2024: 0.0}),
        transport_storage=5.0)   # LCOH = 5 < gas = 20
    traj = CapacityTrajectory(2023, 1.86, {2024: 1.0})
    assert annual_subsidies(2025, traj, cheap, False) == 0.0


# ---------------------------------------------------------------------------
# Cumulative schedules
# ---------------------------------------------------------------------------

def test_cumulative_is_running_sum(central, offset_traj):
    schedule = cumulative_subsidies(offset_traj, central, False, 2045)
    running = 0.0
    for a, c in zip(schedule.annual_busd, schedule.cumulative_busd):
        running += a
        assert c == pytest.approx(running, rel=1e-12)
    assert all(b >= a - 1e-12 for a, b in
               zip(schedule.cumulative_busd, schedule.cumulative_busd[1:]))


def test_carbon_pricing_lowers_requirements(central, offset_traj):
    off = cumulative_subsidies(offset_traj, central, False, 2045).total_busd
    on = cumulative_subsidies(offset_traj, central, True, 2045).total_busd
    assert on < off


def test_higher_carbon_price_lowers_requirements_further(central, offset_traj):
    pricier = central.replace(co2_price=central.co2_price.scaled(1.2))
    base = cumulative_subsidies(offset_traj, central, True, 2045).total_busd
    assert cumulative_subsidies(offset_traj, pricier, True, 2045).total_busd < base


def test_bigger_pipeline_needs_more_subsidies(central, pipeline_traj, offset_traj):
    supported = demand_supported_additions(central, pipeline_traj)
    base = cumulative_subsidies(offset_traj, central, False, 2045).total_busd
    for factor in (1.1, 1.5):
        bigger = CapacityTrajectory(
            2023, 1.86,
            {y: factor * pipeline_traj.addition(y) for y in pipeline_traj.build_years},
            supported)
        grown = cumulative_subsidies(bigger, central, False, 2045).total_busd
        assert grown > base


def test_removing_demand_policy_strictly_raises_subsidies(central, pipeline_traj,
                                                          offset_traj):
    with_policy = cumulative_subsidies(offset_traj, central, False, 2045).total_busd
    without = cumulative_subsidies(pipeline_traj, central, False, 2045).total_busd
    assert without > with_policy


def test_peak_reporting(central, offset_traj):
    schedule = cumulative_subsidies(offset_traj, central, True, 2045)
    year, value = schedule.peak()
    assert value == max(schedule.annual_busd)
    assert schedule.annual(year) == value


@pytest.mark.parametrize("lookup", ["annual", "cumulative"])
@pytest.mark.parametrize("year", [2023, 2031, 2045])
def test_schedule_lookup_outside_its_years_names_the_year(central, offset_traj,
                                                           lookup, year):
    schedule = cumulative_subsidies(offset_traj, central, False, 2030)
    with pytest.raises(ValueError, match=rf"^year {year} is outside the "
                                         r"schedule's years 2024-2030$"):
        getattr(schedule, lookup)(year)


@pytest.mark.parametrize("horizon, lcoh_calls, payment_years",
                         [(2045, 225, 22), (2100, 405, 77)])
def test_schedule_lcoh_and_payment_year_counts(central, pipeline_traj, monkeypatch,
                                               horizon, lcoh_calls, payment_years):
    # the benchmark pins the same counts; a cheaper evaluation must not change
    # how often the schedule evaluates the LCOH
    import h2gap.subsidies
    counts = {"lcoh": 0, "annual_subsidies": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in counts:
        monkeypatch.setattr(h2gap.subsidies, name,
                            counting(name, getattr(h2gap.subsidies, name)))
    supported = demand_supported_additions(central, pipeline_traj)
    traj = fixtures.median_extended_pipeline(horizon).with_supported(supported)
    cumulative_subsidies(traj, central, False, horizon)
    assert counts == {"lcoh": lcoh_calls, "annual_subsidies": payment_years}


def _counting_series_lookups(monkeypatch) -> list:
    """Patch ``TimeAnchoredSeries.at`` to record each call; returns the record."""
    import h2gap.costs
    calls = []
    at = h2gap.costs.TimeAnchoredSeries.at

    def counting(self, year):
        calls.append(year)
        return at(self, year)

    monkeypatch.setattr(h2gap.costs.TimeAnchoredSeries, "at", counting)
    return calls


@pytest.mark.parametrize("horizon, carbon, cold, warm", [
    (2045, False, 88, 22), (2045, True, 110, 44),
    (2100, False, 158, 77), (2100, True, 235, 154)])
def test_schedule_series_lookup_counts(central, pipeline_traj, monkeypatch,
                                       horizon, carbon, cold, warm):
    # a schedule asked for again looks up only the gas side: the gas price,
    # and with carbon pricing the CO2 price, once per payment year. A cohort
    # reads its locked efficiency from the memoised LCOH record, so the
    # first schedule adds only the three series of each learning state's
    # LCOH (efficiency, stack lifetime, electricity price): 22 at 2045, 27
    # at 2100
    supported = demand_supported_additions(central, pipeline_traj)
    traj = fixtures.median_extended_pipeline(horizon).with_supported(supported)
    params = ParamSet.builtin("central")        # its memos are empty
    calls = _counting_series_lookups(monkeypatch)
    cumulative_subsidies(traj, params, carbon, horizon)
    assert len(calls) == cold
    calls.clear()
    cumulative_subsidies(traj, params, carbon, horizon)
    assert len(calls) == warm == (horizon - 2023) * (2 if carbon else 1)


@pytest.mark.parametrize("carbon, cold, warm", [(False, 43, 22), (True, 64, 43)])
def test_budget_inversion_series_lookup_counts(pipeline_traj, monkeypatch,
                                               carbon, cold, warm):
    # one efficiency lookup for the 2030 policy volume, the gas side of the
    # 21 payment years 2024-2044, and on a cold set the three LCOH series of
    # each of the 7 build years; the unit costs read each cohort's efficiency
    # from its LCOH record
    params = ParamSet.builtin("central")
    calls = _counting_series_lookups(monkeypatch)
    capacity_supported_by_budget(308.0, params, carbon, pipeline_traj)
    assert len(calls) == cold
    calls.clear()
    capacity_supported_by_budget(308.0, params, carbon, pipeline_traj)
    assert len(calls) == warm


@pytest.mark.parametrize("carbon", [False, True])
@pytest.mark.parametrize("horizon, learning_states", [(2045, 22), (2100, 27)])
def test_schedule_computes_each_learning_state_once(central, pipeline_traj, monkeypatch,
                                                    horizon, learning_states, carbon):
    # lcoh computes investment costs only on a miss of the parameter set's
    # memo: once per distinct (year, cumulative capacity) of the schedule,
    # and not at all when the same schedule is asked for again
    import h2gap.costs
    misses = []
    compute = h2gap.costs.investment_costs

    def counting(*args):
        misses.append(args[0])
        return compute(*args)

    monkeypatch.setattr(h2gap.costs, "investment_costs", counting)
    params = ParamSet.builtin("central")        # its memo is empty
    supported = demand_supported_additions(central, pipeline_traj)
    traj = fixtures.median_extended_pipeline(horizon).with_supported(supported)
    cumulative_subsidies(traj, params, carbon, horizon)
    assert len(misses) == len(set(misses)) == learning_states
    misses.clear()
    cumulative_subsidies(traj, params, carbon, horizon)
    assert misses == []


# ---------------------------------------------------------------------------
# The library against bench/oracle.py over drawn valid inputs
# ---------------------------------------------------------------------------

BUNDLED = {s: ParamSet.builtin(s) for s in ("central", "progressive", "conservative")}
PIPE = fixtures.builtin_pipeline()
PIPE_ADDS = {y: PIPE.addition(y) for y in PIPE.build_years}
OFFSET = demand_supported_additions(BUNDLED["central"], PIPE)     # the 7 Mt policy
Cell = namedtuple("Cell", "params additions supported carbon base_year base_gw "
                          "horizon budget_share", defaults=(2023, 1.86, 2045, 0.5))
FIVE_YEARS = Cell(BUNDLED["central"], {2024: 1.0, 2025: 2.0, 2026: 1.5, 2027: 0.5, 2028: 3.0},
                  {2024: 0.2, 2025: 0.0, 2026: 0.5, 2027: 0.1, 2028: 1.0}, False)


@st.composite
def cells(draw):
    """A parameter set, a pipeline through 2030 and its supported share, a horizon."""
    params = BUNDLED[draw(st.sampled_from(sorted(BUNDLED)))]
    params = params.replace(
        payback_period=draw(st.sampled_from((1.0, 2.5, 7.0, 15.0, 15.5, 30.0))),
        gas_price=params.gas_price.scaled(draw(st.sampled_from((0.2, 1.0, 3.0)))))
    base_year = draw(st.sampled_from((2023, 2024)))
    additions = {y: draw(st.floats(0.0, 80.0)) for y in range(base_year + 1, 2031)}
    share = draw(st.sampled_from((0.0, 0.5, 1.0)))
    return Cell(params, additions, {y: share * v for y, v in additions.items()},
                draw(st.booleans()), base_year, draw(st.sampled_from((0.5, 1.86, 20.0))),
                draw(st.sampled_from((2030, 2045, 2060))),
                draw(st.sampled_from((0.0, 0.5, 1.5))))


def _matches_reference(oracle, cell):
    params, additions, supported, carbon, base_year, base_gw, horizon, share = cell
    ref = oracle.Reference(params, base_year, base_gw, additions, supported, carbon)
    pipe = CapacityTrajectory(base_year, base_gw, additions)
    traj = pipe.with_supported(supported)
    schedule = cumulative_subsidies(traj, params, carbon, horizon)
    assert dict(zip(schedule.years, schedule.annual_busd)) \
        == pytest.approx(ref.annual(horizon), rel=1e-9, abs=1e-9)
    unit_costs = ref.unit_costs()          # the build years with net > 0
    costs = _unit_costs(traj, params, carbon)
    assert {y: costs[y] for y in unit_costs} \
        == pytest.approx(unit_costs, rel=1e-9, abs=1e-9)
    years = range(2024, horizon + 1)
    assert [lcoh(y, traj, params).total for y in years] \
        == pytest.approx([ref.lcoh(y) for y in years], rel=1e-9)
    # parity is the first year whose gap is <= 0, allowing a 1e-9 $/MWh tie
    gaps = [ref.lcoh(y) - ref.gas(y) for y in years]
    parity = parity_year(traj, params, carbon, horizon)
    first = len(gaps) if parity is None else parity - 2024
    assert all(g > -1e-9 for g in gaps[:first])
    assert parity is None or gaps[first] <= 1e-9
    window = sum(additions.values())        # every build year is in 2024-2030
    for policy in (0.0, oracle.POLICY_MT):
        offset = oracle.supported_additions(params, additions) if policy and window else {}
        if policy and not 0.0 < sum(offset.values()) <= window:
            with pytest.raises(ValueError, match="exceeds the announced pipeline"):
                capacity_supported_by_budget(0.0, params, carbon, pipe, policy)
            continue
        full = oracle.Reference(params, base_year, base_gw, additions, offset,
                                carbon).full_cost()
        budget = share * full
        net_total = sum(additions.values()) - sum(offset.values())
        for allocation in ("chronological", "uniform"):
            res = capacity_supported_by_budget(budget, params, carbon, pipe, policy,
                                               allocation)
            assert res.saturated == (budget >= full)
            assert res.spent_busd == pytest.approx(full if res.saturated else budget,
                                                   rel=1e-9)
            if res.saturated:
                assert res.subsidy_supported_gw \
                    == pytest.approx(net_total, rel=1e-9, abs=1e-9)
        _check_funding_rule(params, carbon, pipe, policy)


def _check_funding_rule(params, carbon, pipe, policy=DEFAULT_POLICY_MT):
    """The budget inversion's one funding rule, over budgets from 0 to past
    saturation, on the cohorts with net additions: a cohort of unit cost 0 is
    counted in full; chronological funds the others fully, then one in part,
    then none; uniform funds each of them by one share. Both allocations
    support no less capacity as the budget grows, and come to the saturated
    figure continuously: the GW left unfunded cost at least the cheapest
    cohort of positive cost each, so they are at most the budget short over
    that unit cost."""
    traj = pipe.with_supported(demand_supported_additions(params, pipe, policy))
    unit = _unit_costs(traj, params, carbon)
    net = {y: traj.net_addition(y) for y in traj.build_years}
    full = sum(net[y] * unit[y] for y in traj.build_years)
    net_total = sum(net.values())
    paid = [y for y in traj.build_years if net[y] > 0.0 and unit[y] > 0.0]
    free = [y for y in traj.build_years if net[y] > 0.0 and unit[y] == 0.0]
    for allocation in ("chronological", "uniform"):
        supported = []
        for budget in (0.0, 0.3 * full, 0.7 * full, full * (1 - 1e-6), full,
                       1.5 * full + 1.0):
            res = capacity_supported_by_budget(budget, params, carbon, pipe, policy,
                                               allocation)
            assert res.saturated == (budget >= full)
            assert all(res.per_year_gw[y] == net[y] for y in free)
            share = [res.per_year_gw[y] / net[y] for y in paid]
            if res.saturated:
                assert share == [1.0] * len(paid)
                assert res.subsidy_supported_gw == pytest.approx(net_total, rel=1e-12)
            elif allocation == "chronological":
                k = next((i for i, f in enumerate(share) if f != 1.0), len(share))
                assert all(0.0 <= f <= 1.0 for f in share[k:k + 1])
                assert share[k + 1:] == [0.0] * len(share[k + 1:])
            else:
                # one share budget/full for all; compared in GW, as a share of
                # a subnormal net is not one float
                assert [res.per_year_gw[y] for y in paid] \
                    == pytest.approx([budget / full * net[y] for y in paid], rel=1e-12)
            if not res.saturated:
                short = net_total - res.subsidy_supported_gw
                bound = (full - budget) / min(unit[y] for y in paid)
                assert -1e-12 * net_total <= short <= bound * (1 + 1e-9)
            supported.append(res.subsidy_supported_gw)
        # non-decreasing, up to the rounding of a sum of per-year floats
        assert all(b >= a * (1 - 1e-12) for a, b in zip(supported, supported[1:]))


@settings(max_examples=400)
@given(cell=cells())
def test_library_matches_the_reference_ledger(oracle, cell):
    _matches_reference(oracle, cell)


@pytest.mark.parametrize("carbon", [False, True])
def test_ledger_matches_brute_force_oracle(oracle, carbon):
    _matches_reference(oracle, FIVE_YEARS._replace(carbon=carbon))


def test_ledger_oracle_on_bundled_pipeline(oracle):
    _matches_reference(oracle, FIVE_YEARS._replace(additions=PIPE_ADDS, supported=OFFSET))


# ---------------------------------------------------------------------------
# Budget inversion
# ---------------------------------------------------------------------------

def test_zero_budget_supports_nothing(central, pipeline_traj):
    res = capacity_supported_by_budget(0.0, central, False, pipeline_traj)
    assert res.subsidy_supported_gw == 0.0
    assert not res.saturated
    assert res.demand_supported_gw == pytest.approx(87.6, abs=1.0)


def test_monotone_in_budget(central, pipeline_traj):
    results = [capacity_supported_by_budget(b, central, False, pipeline_traj)
               .subsidy_supported_gw for b in (0.0, 100.0, 308.0, 800.0, 1500.0)]
    assert all(b > a for a, b in zip(results, results[1:]))


def test_budget_spent_within_tolerance(central, pipeline_traj):
    for allocation in ("chronological", "uniform"):
        res = capacity_supported_by_budget(308.0, central, False, pipeline_traj,
                                           allocation=allocation)
        assert not res.saturated
        assert res.spent_busd == pytest.approx(308.0, rel=1e-12)


def test_saturation_returns_full_net_pipeline(central, pipeline_traj):
    res = capacity_supported_by_budget(1e6, central, False, pipeline_traj)
    assert res.saturated
    net_total = pipeline_traj.total_additions() - res.demand_supported_gw
    assert res.subsidy_supported_gw == pytest.approx(net_total, rel=1e-9)


def test_uniform_allocation_matches_linear_solution(central, pipeline_traj):
    full = capacity_supported_by_budget(1e6, central, False, pipeline_traj)
    res = capacity_supported_by_budget(308.0, central, False, pipeline_traj,
                                       allocation="uniform")
    lam = 308.0 / full.spent_busd
    assert res.subsidy_supported_gw \
        == pytest.approx(lam * full.subsidy_supported_gw, rel=1e-12)


@pytest.mark.parametrize("carbon", [False, True])
@pytest.mark.parametrize("share", [0.1, 0.5, 0.9])
def test_uniform_budget_is_spent_exactly(central, pipeline_traj, carbon, share):
    full = capacity_supported_by_budget(1e6, central, carbon, pipeline_traj)
    budget = share * full.spent_busd
    res = capacity_supported_by_budget(budget, central, carbon, pipeline_traj,
                                       allocation="uniform")
    assert not res.saturated
    assert res.spent_busd == pytest.approx(budget, rel=1e-12)
    lam = budget / full.spent_busd
    for year, net in full.per_year_gw.items():
        assert res.per_year_gw[year] == pytest.approx(lam * net, rel=1e-12)


@pytest.mark.parametrize("carbon", [False, True])
def test_saturated_spend_equals_uncut_ledger_total(central, oracle, carbon):
    res = capacity_supported_by_budget(1e6, central, carbon, PIPE)
    assert res.saturated
    ref = oracle.Reference(central, 2023, 1.86, PIPE_ADDS, OFFSET, carbon)
    ledger = ref.annual(PIPE.last_year + ref.tau - 1)
    assert res.spent_busd == pytest.approx(sum(ledger.values()), rel=1e-9)


@pytest.mark.parametrize("allocation", ["chronological", "uniform"])
def test_budget_inversion_prices_each_build_year_once(central, pipeline_traj,
                                                      monkeypatch, allocation):
    import h2gap.subsidies
    calls = []

    def counting_lcoh(year, trajectory, params):
        calls.append(year)
        return lcoh(year, trajectory, params)

    monkeypatch.setattr(h2gap.subsidies, "lcoh", counting_lcoh)
    capacity_supported_by_budget(308.0, central, False, pipeline_traj,
                                 allocation=allocation)
    assert sorted(calls) == pipeline_traj.build_years


def test_chronological_fills_early_years_first(central, pipeline_traj, offset_traj):
    res = capacity_supported_by_budget(308.0, central, False, pipeline_traj)
    years = sorted(res.per_year_gw)
    filled = [res.per_year_gw[y] for y in years]
    # first years fully funded, then a partial year, then nothing
    state = "full"
    for year, got in zip(years, filled):
        net = offset_traj.net_addition(year)
        if state == "full" and got < net - 1e-9:
            state = "tail"
            continue
        if state == "tail":
            assert got == 0.0


def test_cohorts_at_parity_are_funded_in_full_by_both_allocations(central):
    # the 2043-2050 cohorts cost nothing over their payback, so both
    # allocations count them in full; the chronological fill pays for part of
    # the 2026 cohort and for none of the later cohorts of positive cost
    pipe = fixtures.median_extended_pipeline(2050)
    traj = pipe.with_supported(demand_supported_additions(central, pipe))
    unit = _unit_costs(traj, central, True)
    assert all(unit[y] == 0.0 for y in range(2043, 2051))
    for allocation in ("chronological", "uniform"):
        res = capacity_supported_by_budget(300.0, central, True, pipe,
                                           allocation=allocation)
        assert all(res.per_year_gw[y] == traj.net_addition(y) == pytest.approx(200.0)
                   for y in range(2043, 2051))
        assert res.spent_busd == pytest.approx(300.0, rel=1e-12)
    res = capacity_supported_by_budget(300.0, central, True, pipe)
    assert 0.0 < res.per_year_gw[2026] < traj.net_addition(2026)
    assert all(res.per_year_gw[y] == 0.0 for y in range(2027, 2043))


@pytest.mark.parametrize("policy", [0.0, DEFAULT_POLICY_MT])
@pytest.mark.parametrize("payback, at_parity", [
    (7.0, [2029, 2030]), (15.0, [2028, 2029, 2030]), (30.0, [2027, 2028, 2029, 2030])])
def test_funding_rule_with_cohorts_at_parity(payback, at_parity, policy):
    # progressive parameters, gas at 3x and carbon on: the last bundled build
    # years are at parity over their whole payback
    params = BUNDLED["progressive"]
    params = params.replace(payback_period=payback,
                            gas_price=params.gas_price.scaled(3.0))
    traj = PIPE.with_supported(demand_supported_additions(params, PIPE, policy))
    unit = _unit_costs(traj, params, True)
    assert [y for y in PIPE.build_years if unit[y] == 0.0] == at_parity
    _check_funding_rule(params, True, PIPE, policy)


def test_funding_rule_on_the_extended_pipeline(central):
    # 1e-6 of the full cost (2227.5 $bn) short, the chronological fill leaves
    # 0.223 GW of 3910.5 unfunded, all of it in the cheapest cohort of positive
    # cost (2042, 0.00998 $bn/GW); it used to stop at 2026 and fund 2310.3 GW
    _check_funding_rule(central, True, fixtures.median_extended_pipeline(2050))


NAN = float("nan")


@pytest.mark.parametrize("call", [
    lambda p, pipe: annuity_factor(NAN, 10),
    lambda p, pipe: annuity_factor(0.05, NAN),
    lambda p, pipe: production_to_capacity(NAN, 3750, 0.7),
    lambda p, pipe: capacity_to_production(NAN, 3750, 0.7),
    lambda p, pipe: CapacityTrajectory(2023, 1.86, {2024: 5.0}, {2024: NAN}),
    lambda p, pipe: demand_supported_additions(p, pipe, NAN),
    lambda p, pipe: capacity_supported_by_budget(NAN, p, False, pipe),
], ids=["annuity-rate", "annuity-years", "production_to_capacity",
        "capacity_to_production", "supported", "policy", "budget"])
def test_nan_inputs_raise(central, pipeline_traj, call):
    with pytest.raises(ValueError):
        call(central, pipeline_traj)


def test_budget_validation(central, pipeline_traj):
    with pytest.raises(ValueError):
        capacity_supported_by_budget(-1.0, central, False, pipeline_traj)
    with pytest.raises(ValueError):
        capacity_supported_by_budget(10.0, central, False, pipeline_traj,
                                     allocation="cheapest")


@pytest.mark.parametrize("carbon", [False, True])
def test_long_payback_unit_cost_matches_year_by_year_sum(central, offset_traj, carbon):
    # payment years past the last gas and CO2 anchors are added in closed form
    params = central.replace(payback_period=40.0)
    costs = _unit_costs(offset_traj, params, carbon)
    assert list(costs) == offset_traj.build_years
    for year in offset_traj.build_years:
        locked = lcoh(year, offset_traj, params).total
        gaps = sum(max(0.0, locked - gas_cost(t, params, carbon))
                   for t in range(year, year + 40))
        expected = params.full_load_hours * params.efficiency.at(year) * gaps * 1e-6
        assert expected > 0.0
        assert costs[year] == pytest.approx(expected, rel=1e-12)


def _budget_gas_lookups(params, pipeline, monkeypatch):
    """Years whose gas cost one budget call looks up, and the call's result."""
    import h2gap.subsidies
    calls = []

    def counting_gas_cost(year, params, carbon_pricing):
        calls.append(year)
        return gas_cost(year, params, carbon_pricing)

    monkeypatch.setattr(h2gap.subsidies, "gas_cost", counting_gas_cost)
    res = capacity_supported_by_budget(100.0, params, False, pipeline)
    return sorted(calls), res


def test_huge_payback_budget_inversion_is_bounded(central, pipeline_traj, monkeypatch):
    # one gas lookup per payment year up to 2045, after which gas and CO2 are
    # flat and added in closed form: a year-by-year loop would never finish
    params = central.replace(payback_period=1e9)
    calls, res = _budget_gas_lookups(params, pipeline_traj, monkeypatch)
    assert calls == list(range(2024, 2046)) and not res.saturated
    assert math.isfinite(res.spent_busd) and res.spent_busd == pytest.approx(100.0)


def test_budget_inversion_prices_each_payment_year_once(central, pipeline_traj,
                                                        monkeypatch):
    # the bundled 15-year payback: the 2030 cohort pays through 2044, and a
    # year that several cohorts pay in is still looked up once
    calls, res = _budget_gas_lookups(central, pipeline_traj, monkeypatch)
    assert calls == list(range(2024, 2045)) and not res.saturated


def test_huge_payback_schedule_is_bounded(central, pipeline_traj):
    # every cohort pays through 2100 at both paybacks, and the balance-of-plant
    # annuity r / (1 - (1 + r) ** -n) rounds to r at both, so the schedules
    # agree bit for bit; a window ranged over the payback years never ends
    traj = fixtures.median_extended_pipeline(2100).with_supported(
        demand_supported_additions(central, pipeline_traj))
    assert annuity_factor(central.cost_of_capital, 1e3) \
        == annuity_factor(central.cost_of_capital, 1e9)
    finite, huge = (cumulative_subsidies(
        traj, central.replace(payback_period=payback), True, 2100)
        for payback in (1e3, 1e9))
    assert huge.annual_busd == finite.annual_busd


@pytest.mark.parametrize("make", [
    lambda params, pipe: pipe,
    lambda params, pipe: fixtures.median_extended_pipeline(2100),
    lambda params, pipe: pipe.with_supported(demand_supported_additions(params, pipe)),
], ids=["bundled", "median_extended_2100", "with_supported"])
def test_net_list_is_net_addition(central, pipeline_traj, make):
    traj = make(central, pipeline_traj)
    assert traj._net == [traj.net_addition(y) for y in traj.build_years]
