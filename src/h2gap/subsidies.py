"""Cost gap to natural gas, required subsidies and the budget-to-capacity inversion.

A project finished in year t' must sell hydrogen at its own LCOH (locked at
the build year) throughout the payback period. The per-MWh subsidy it needs
in payment year t is the clamped gap to the then-current total gas cost
``max(0, LCOH[t'] - gas[t])``, so required annual subsidies stack cohorts::

    S_t = sum over build years t' in [t - tau + 1, t] of
          dC[t'] * FLH * eta[t'] * max(0, LCOH[t'] - gas[t])

with dC the capacity additions net of the demand-policy-supported share.
Each cohort receives exactly ``tau`` annual payments (build year included)
unless the reporting horizon cuts the window short. There is no discounting
across payment years and no clawback after parity.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from collections import namedtuple
# for SubsidySchedule alone, which bench/test_bench.py copies with dataclasses.replace
from dataclasses import dataclass
from itertools import accumulate

# gas_cost is defined in costs, with the rest of the per-year cost path
from .costs import CapacityTrajectory, ParamSet, gas_cost, lcoh
from .units import (DEFAULT_POLICY_MT, FIRST_SUBSIDY_YEAR, fold_sum,
                    production_to_capacity)

__all__ = [
    "SubsidySchedule", "BudgetSupportResult",
    "gas_cost", "cost_gap", "parity_year", "demand_supported_additions",
    "annual_subsidies", "cumulative_subsidies", "capacity_supported_by_budget",
]

POLICY_WINDOW = (2024, 2030)   # years across which demand-side support is spread


def cost_gap(year: int, trajectory: CapacityTrajectory, params: ParamSet,
             carbon_pricing: bool) -> float:
    """Signed LCOH-minus-gas gap in $/MWh; negative once parity is passed."""
    return lcoh(year, trajectory, params).total - gas_cost(year, params, carbon_pricing)


def parity_year(trajectory: CapacityTrajectory, params: ParamSet,
                carbon_pricing: bool, horizon: int) -> int | None:
    """First year up to ``horizon`` with a non-positive cost gap, if any."""
    if horizon < FIRST_SUBSIDY_YEAR:
        raise ValueError(f"horizon must be >= {FIRST_SUBSIDY_YEAR}, got {horizon}")
    for year in range(FIRST_SUBSIDY_YEAR, horizon + 1):
        if cost_gap(year, trajectory, params, carbon_pricing) <= 0.0:
            return year
    return None


def demand_supported_additions(params: ParamSet, pipeline: CapacityTrajectory,
                               policy_mt: float = DEFAULT_POLICY_MT) -> dict[int, float]:
    """Capacity additions already carried by demand-side policy, by build year.

    The policy volume (Mt H2 per year by 2030) converts to cumulative input
    capacity at 2030 efficiency and the parameter set's full-load hours, and
    is spread across the 2024-2030 build years proportionally to the
    pipeline's annual additions.
    """
    years = [y for y in pipeline.build_years
             if POLICY_WINDOW[0] <= y <= POLICY_WINDOW[1]]
    if policy_mt == 0.0:
        return {y: 0.0 for y in years}
    total = production_to_capacity(policy_mt, params.full_load_hours,
                                   params.efficiency.at(2030))
    window_additions = fold_sum(pipeline.addition(y) for y in years)
    if total > window_additions:
        raise ValueError(
            f"demand-supported capacity ({total:.1f} GW) exceeds the announced "
            f"pipeline ({window_additions:.1f} GW) in {POLICY_WINDOW}")
    shares = {y: total * pipeline.addition(y) / window_additions for y in years}
    # a product can round one ulp above its addition: cap the share there, but
    # leave an overflowed share to the trajectory's check, which names the year
    return {y: share if share == math.inf else min(share, pipeline.addition(y))
            for y, share in shares.items()}


def _unit_costs(trajectory: CapacityTrajectory, params: ParamSet,
                carbon_pricing: bool) -> dict[int, float]:
    """Subsidy per GW built in each build year over its payback window ($bn/GW).

    The gas total of a payment year is looked up once per call, whichever
    cohorts pay in it, and in year order.
    """
    payments = math.ceil(params.payback_period)
    # gas is flat from the later of its and the CO2 price's last anchors on, so
    # the payment years after that one repeat its gap: add them in closed form
    flat_from = max(max(params.gas_price.anchors()), max(params.co2_price.anchors()))
    gas: dict[int, float] = {}
    priced = 0   # the last year in ``gas``: no window ends before its predecessor's
    costs = {}
    flh = params.full_load_hours
    for build_year in trajectory._years:
        locked = lcoh(build_year, trajectory, params)
        locked_lcoh = locked.total
        final = build_year + payments - 1     # last payment year
        last = min(final, max(build_year, flat_from))
        for t in range(max(build_year, priced + 1), last + 1):
            gas[t] = gas_cost(t, params, carbon_pricing)
        priced = last
        total_gap = 0.0   # the window's gaps folded left to right, as fold_sum adds
        for t in range(build_year, last + 1):
            gap = max(0.0, locked_lcoh - gas[t])
            total_gap += gap
        total_gap += (final - last) * gap
        # GW * h/yr * eta -> MWh H2 (1e3), times $/MWh, to $bn (1e-9)
        costs[build_year] = flh * locked.efficiency * total_gap * 1e-6
    return costs


def annual_subsidies(year: int, trajectory: CapacityTrajectory, params: ParamSet,
                     carbon_pricing: bool) -> float:
    """Required subsidies paid out in ``year`` ($bn/yr) across active cohorts.

    A cohort built in t' is active for the payment years t' .. t'+tau-1; its
    LCOH stays locked at the build year while the gas reference follows the
    payment year.
    """
    payments = math.ceil(params.payback_period)
    gas_total = gas_cost(year, params, carbon_pricing)
    flh = params.full_load_hours
    # the cohorts built in [year - tau + 1, year], found by bisection: the
    # cost is O(log n + active cohorts) whatever the payback period
    years = trajectory._years
    lo = bisect_left(years, year - payments + 1)
    hi = bisect_right(years, year, lo)
    total = 0.0
    for build_year, net in zip(years[lo:hi], trajectory._net[lo:hi]):
        if net <= 0.0:
            continue
        # the cohort's LCOH and efficiency, both locked at its build year
        locked = lcoh(build_year, trajectory, params)
        gap = locked.total - gas_total
        if gap <= 0.0:
            continue
        total += net * flh * locked.efficiency * gap * 1e-6
    return total


@dataclass(frozen=True)
class SubsidySchedule:
    """Annual and cumulative subsidy requirements ($bn) over a horizon."""
    years: tuple[int, ...]
    annual_busd: tuple[float, ...]
    cumulative_busd: tuple[float, ...]

    def annual(self, year: int) -> float:
        return self.annual_busd[self._index(year)]

    def cumulative(self, year: int) -> float:
        return self.cumulative_busd[self._index(year)]

    def _index(self, year: int) -> int:
        try:
            return self.years.index(year)
        except ValueError:
            raise ValueError(f"year {year} is outside the schedule's years "
                             f"{self.years[0]}-{self.years[-1]}") from None

    @property
    def total_busd(self) -> float:
        return self.cumulative_busd[-1]

    def peak(self) -> tuple[int, float]:
        """(year, $bn) of the highest annual requirement."""
        idx = max(range(len(self.years)), key=lambda i: self.annual_busd[i])
        return self.years[idx], self.annual_busd[idx]


def cumulative_subsidies(trajectory: CapacityTrajectory, params: ParamSet,
                         carbon_pricing: bool, through_year: int) -> SubsidySchedule:
    """Subsidy schedule for every build year of ``trajectory`` up to the horizon.

    Payments beyond ``through_year`` are cut off, so cohorts built close to
    the horizon only contribute their in-horizon payment years.
    """
    if through_year < FIRST_SUBSIDY_YEAR:
        raise ValueError(f"through_year must be >= {FIRST_SUBSIDY_YEAR}")
    years = tuple(range(FIRST_SUBSIDY_YEAR, through_year + 1))
    annual = tuple(annual_subsidies(y, trajectory, params, carbon_pricing)
                   for y in years)
    return SubsidySchedule(years=years, annual_busd=annual,
                           cumulative_busd=tuple(accumulate(annual)))


class BudgetSupportResult(namedtuple("_BudgetSupportResult", (
        "budget_busd", "subsidy_supported_gw", "demand_supported_gw", "spent_busd",
        "saturated", "allocation", "per_year_gw"))):
    """How much capacity a subsidy budget can carry, next to demand policy.

    ``per_year_gw`` maps each build year to the GW the budget funds in it.
    """
    __slots__ = ()

    @property
    def total_supported_gw(self) -> float:
        return self.subsidy_supported_gw + self.demand_supported_gw


def capacity_supported_by_budget(budget_busd: float, params: ParamSet,
                                 carbon_pricing: bool,
                                 pipeline: CapacityTrajectory,
                                 policy_mt: float = DEFAULT_POLICY_MT,
                                 allocation: str = "chronological") -> BudgetSupportResult:
    """Invert the subsidy model: capacity affordable with a fixed budget ($bn).

    Demand-side policy first carries its share of the pipeline; the budget
    then funds the remaining (net) additions, with the LCOH path held fixed
    at the full-pipeline learning trajectory (no learning feedback from the
    smaller funded build-out).

    One rule for both allocations: a cohort of unit cost 0 (at parity over
    its whole payback window) needs no money and is counted in full.
    ``allocation='chronological'`` pays for the others in build-year order
    until the money runs out (full cohorts, one partial, then none), which
    mirrors projects coming online as announced; ``allocation='uniform'``
    scales each of them by one factor ``budget / full_cost``, exact because
    spend is linear in it. A budget at or above the full-pipeline requirement
    funds the whole net pipeline with ``saturated=True``.
    """
    if not budget_busd >= 0.0:
        raise ValueError(f"budget must be >= 0, got {budget_busd}")
    if allocation not in ("chronological", "uniform"):
        raise ValueError(f"allocation must be chronological or uniform, "
                         f"got {allocation!r}")
    supported = demand_supported_additions(params, pipeline, policy_mt)
    traj = pipeline.with_supported(supported)
    build_years = traj.build_years
    unit_cost = _unit_costs(traj, params, carbon_pricing)
    net = dict(zip(build_years, traj._net))
    full_cost = fold_sum(net[y] * unit_cost[y] for y in build_years)
    saturated = budget_busd >= full_cost

    per_year = dict(net)   # the saturated result; cohorts at parity keep it
    if not saturated and allocation == "chronological":
        remaining = budget_busd
        for y in build_years:
            cost = net[y] * unit_cost[y]
            if cost <= remaining:
                remaining -= cost
            else:
                # the partial cohort; a later one gets 0/unit cost, or its net at parity
                per_year[y] = remaining / unit_cost[y]
                remaining = 0.0
    elif not saturated:
        lam = budget_busd / full_cost   # full_cost > budget >= 0 here
        per_year = {y: lam * net[y] if unit_cost[y] > 0.0 else net[y]
                    for y in build_years}

    return BudgetSupportResult(
        budget_busd=budget_busd, subsidy_supported_gw=fold_sum(per_year.values()),
        demand_supported_gw=fold_sum(supported.values()),
        spent_busd=fold_sum(per_year[y] * unit_cost[y] for y in build_years),
        saturated=saturated, allocation=allocation, per_year_gw=per_year)
