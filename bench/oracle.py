"""Brute-force reference for the subsidy sweep, written from the formulas alone.

Nothing here calls h2gap's cost, subsidy or scenario functions; it reads only
the plain attributes of a ``ParamSet`` (and the anchors of its series), the
pipeline's additions and the scenario requirement values. The cohort ledger
is the one in the ``h2gap.subsidies`` docstring::

    S_t = sum over build years t' in [t - tau + 1, t] of
          dC[t'] * FLH * eta[t'] * max(0, LCOH[t'] - gas[t])
"""

from __future__ import annotations

import math
import statistics

LHV_KWH_PER_KG = 33.33
POLICY_MT = 7.0


def series_at(series, year: float) -> float:
    anchors = series.anchors()
    years = sorted(anchors)
    if year < years[0]:
        raise ValueError(f"{year} is before the first anchor {years[0]}")
    for lo, hi in zip(years, years[1:]):
        if year <= hi:
            return anchors[lo] + (year - lo) / (hi - lo) * (anchors[hi] - anchors[lo])
    return anchors[years[-1]]


class Reference:
    """Cost path, cohort ledger, parity and budget of one sweep cell."""

    def __init__(self, params, base_year: int, base_gw: float,
                 additions: dict[int, float], supported: dict[int, float],
                 carbon: bool):
        self.p = params
        self.base_year = base_year
        self.base_gw = base_gw
        self.additions = dict(sorted(additions.items()))
        self.supported = supported
        self.carbon = carbon
        self.tau = int(math.ceil(params.payback_period))

    def investment(self, year: int) -> tuple[float, float]:
        p = self.p
        c = self.base_gw + sum(v for y, v in self.additions.items() if y <= year)
        ratio = c / self.base_gw
        stack = p.stack_share_2023 * p.investment_2023 \
            * ratio ** math.log2(1.0 - p.learning_rate_stack)
        bop = (1.0 - p.stack_share_2023) * p.investment_2023 \
            * ratio ** math.log2(1.0 - p.learning_rate_bop)
        return stack, bop

    def lcoh(self, year: int) -> float:
        p = self.p
        r = p.cost_of_capital
        stack, bop = self.investment(year)
        eta = series_at(p.efficiency, year)
        a_bop = r / (1.0 - (1.0 + r) ** (-p.payback_period))
        a_stack = r / (1.0 - (1.0 + r) ** (-series_at(p.stack_lifetime, year)))
        capex = ((a_bop + p.fom_share) * bop + (a_stack + p.fom_share) * stack) \
            / p.full_load_hours
        return (capex * 1000.0 + series_at(p.electricity_price, year)) / eta \
            + p.transport_storage

    def gas(self, year: int) -> float:
        g = series_at(self.p.gas_price, year)
        if self.carbon:
            g += self.p.emission_intensity * series_at(self.p.co2_price, year)
        return g

    def _net(self, year: int) -> float:
        return self.additions[year] - self.supported.get(year, 0.0)

    def annual(self, through: int) -> dict[int, float]:
        ledger = {year: 0.0 for year in range(2024, through + 1)}
        for build, pay_years in self._cohorts(through):
            locked = self.lcoh(build)
            volume = self._net(build) * self.p.full_load_hours \
                * series_at(self.p.efficiency, build)
            for year in pay_years:
                ledger[year] += volume * max(0.0, locked - self.gas(year)) * 1e-6
        return ledger

    def _cohorts(self, through: int | None):
        for build in self.additions:
            if self._net(build) <= 0.0:
                continue
            last = build + self.tau - 1
            if through is not None:
                if build > through:
                    continue
                last = min(last, through)
            yield build, range(build, last + 1)

    def unit_costs(self) -> dict[int, float]:
        """$bn per GW over each cohort's full payment window."""
        out = {}
        for build, pay_years in self._cohorts(None):
            locked = self.lcoh(build)
            gap = sum(max(0.0, locked - self.gas(t)) for t in pay_years)
            out[build] = self.p.full_load_hours \
                * series_at(self.p.efficiency, build) * gap * 1e-6
        return out

    def full_cost(self) -> float:
        return sum(self._net(y) * c for y, c in self.unit_costs().items())


def supported_additions(params, pipeline_additions: dict[int, float]) -> dict[int, float]:
    """Demand-policy share of the 2024-2030 pipeline additions (GW)."""
    eta_2030 = series_at(params.efficiency, 2030)
    total = POLICY_MT * LHV_KWH_PER_KG * 1e3 / (params.full_load_hours * eta_2030)
    window = {y: v for y, v in pipeline_additions.items() if 2024 <= y <= 2030}
    scale = sum(window.values())
    return {y: total * v / scale for y, v in window.items()}


def extended_additions(pipeline_additions: dict[int, float], base_gw: float,
                       requirement_values: dict[int, list[float]],
                       horizon: int) -> dict[int, float]:
    """Pipeline additions continued linearly to the 2040 and 2050 medians."""
    adds = dict(pipeline_additions)
    if horizon <= max(adds):
        return adds
    c2030 = base_gw + sum(v for y, v in adds.items() if y <= 2030)
    m40 = statistics.median(requirement_values[2040])
    m50 = statistics.median(requirement_values[2050])
    for year in range(2031, horizon + 1):
        if year <= 2040:
            adds[year] = (m40 - c2030) / 10.0
        elif year <= 2050:
            adds[year] = (m50 - m40) / 10.0
        else:
            adds[year] = 0.0
    return adds
