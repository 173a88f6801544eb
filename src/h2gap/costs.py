"""Techno-economic core: parameter sets, learning-curve investment costs, LCOH
and the gas cost it is compared with.

The levelised cost of hydrogen (LCOH, $/MWh of hydrogen, LHV basis) is computed
with the annuity method::

    LCOH = (1/eta) * ( (a(r, tau) + FOM) * I_bop / FLH
                     + (a(r, tau_stack) + FOM) * I_stack / FLH
                     + p_elec ) + VOM

with two separate annuities because the stack is replaced more often than the
balance of plant, and specific investment costs that fall with cumulative
installed capacity through component-specific learning rates::

    I_t = I_2023 * (C_t / C_2023) ** log2(1 - LR)

``C_t`` denotes global cumulative electrolysis capacity at the *end* of year t
(additions of year t included).

One subsidy schedule asks for the LCOH hundreds of times, so the records
returned (:class:`InvestmentCosts`, :class:`LCOHBreakdown`) are named tuples,
series lookups are memoised by year, and each :class:`ParamSet` memoises
:func:`lcoh` in a private dict keyed on ``(year, C_t, C_base)``. With the set
fixed, the year and the learning ratio ``C_t / C_base`` determine the whole
breakdown, and demand-side support does not enter it, so trajectories that
share those values share entries. The records are immutable, and an error is
never stored.

This module holds the whole per-year cost path, :func:`lcoh` and
:func:`gas_cost`, and imports neither ``dataclasses`` nor ``typing``, so the
``lcoh`` and ``gap`` commands load neither (``tests/test_import_split.py``).
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from collections import namedtuple
from collections.abc import Mapping
from itertools import accumulate

from .units import FIRST_SUBSIDY_YEAR, _check_flh_eta

__all__ = [
    "TimeAnchoredSeries",
    "ParamSet",
    "CapacityTrajectory",
    "InvestmentCosts",
    "LCOHBreakdown",
    "annuity_factor",
    "investment_costs",
    "lcoh",
    "gas_cost",
]


class TimeAnchoredSeries:
    """Piecewise-linear time series: linear between anchors, constant after the last.

    Years before the first anchor are an error rather than an extrapolation,
    so that accidental use of e.g. an electricity price before its calibration
    window fails loudly. Lookups are memoised per series and year: a series
    is immutable, and one subsidy schedule asks for the same few dozen years
    thousands of times.
    """

    def __init__(self, anchors: Mapping[int, float]):
        if not anchors:
            raise ValueError("series needs at least one anchor")
        # one (year, value) pair per anchor; -0.0 enters as 0.0
        pairs = sorted((int(y), float(v) + 0.0) for y, v in anchors.items())
        years = [y for y, _ in pairs]
        if len(years) != len(set(years)):
            raise ValueError("anchor years must be unique")
        self._years = [float(y) for y in years]
        self._values = [v for _, v in pairs]
        if not all(math.isfinite(v) for v in self._values):
            raise ValueError(f"series values must be finite, got {anchors!r}")
        xs, ys = self._years, self._values
        self._slopes = [(ys[j + 1] - ys[j]) / (xs[j + 1] - xs[j])
                        for j in range(len(xs) - 1)]
        self._memo: dict[float, float] = {}

    @property
    def first_year(self) -> int:
        return int(self._years[0])

    def at(self, year: float) -> float:
        """Value at ``year``; exact at anchors, linear in between, flat afterwards.

        The segment arithmetic ``slope * (year - x0) + y0`` is the order of
        operations of ``numpy.interp``, so results equal it bit for bit. A
        year before the first anchor raises on every call, and so does a ``nan``
        year (which ``bisect`` would put past the last anchor); an error is
        never cached.
        """
        value = self._memo.get(year)
        if value is not None:
            return value
        xs = self._years
        if not year >= xs[0]:
            raise ValueError(
                f"year {year} is before the first anchor ({self.first_year})")
        j = bisect_right(xs, year) - 1
        if j == len(xs) - 1 or xs[j] == year:
            value = self._values[j]
        else:
            value = self._slopes[j] * (year - xs[j]) + self._values[j]
        self._memo[year] = value
        return value

    def scaled(self, factor: float) -> "TimeAnchoredSeries":
        """New series with every anchor value multiplied by ``factor``."""
        return TimeAnchoredSeries(
            {int(y): v * factor for y, v in zip(self._years, self._values)})

    def anchors(self) -> dict[int, float]:
        return {int(y): v for y, v in zip(self._years, self._values)}

    def __repr__(self) -> str:
        return f"TimeAnchoredSeries({self.anchors()!r})"


def annuity_factor(rate: float, years: float) -> float:
    """Annuity factor a(r, n) = r / (1 - (1+r)^-n) in 1/yr.

    At r = 0 the limit 1/n is returned. ``years`` may be fractional (the
    stack lifetime is interpolated in time).
    """
    if not years >= 1.0:
        raise ValueError(f"annuity period must be >= 1 year, got {years}")
    if not rate >= 0.0:
        raise ValueError(f"cost of capital must be >= 0, got {rate}")
    if rate == 0.0:
        return 1.0 / years
    return rate / (1.0 - (1.0 + rate) ** (-years))


def _number(value) -> float:
    if isinstance(value, bool):   # JSON true/false, which float() reads as 1.0/0.0
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _series(obj) -> TimeAnchoredSeries:
    if not isinstance(obj, Mapping):
        raise ValueError(f"expected a mapping of year to value, got {obj!r}")
    anchors: dict[int, float] = {}
    for key, value in obj.items():
        year = int(key)
        if year in anchors:   # "2024" and "02024" name one year
            raise ValueError(f"anchor year {year} is given twice")
        anchors[year] = _number(value)
    return TimeAnchoredSeries(anchors)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """``json`` object hook: a key given twice is an error, not a silent overwrite."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given twice")
        obj[key] = value
    return obj


class ParamSet:
    """One techno-economic parameterization (central, progressive or conservative).

    All prices in 2023US$. Efficiency is the LHV electrolyser efficiency;
    capacity always denotes the electrical input capacity of the electrolyser.

    A set is immutable: assigning to a field raises, and :meth:`replace`
    derives a changed copy through the constructor, so every check runs again.
    ``_fields`` names the fields in constructor order; ``repr``, ``==`` and
    ``hash`` read them in that order.

    A set memoises :func:`lcoh` in a private attribute, ``_lcoh_memo``, keyed
    on (year, cumulative capacity, base capacity). It is not a field:
    ``repr``, ``==`` and ``hash`` ignore it, and a copy from :meth:`replace`
    starts an empty one.
    """

    _fields = (
        "scenario_id",
        "investment_2023",        # $/kW(el), total electrolyser in 2023
        "stack_share_2023",       # stack share of the 2023 investment
        "learning_rate_stack",    # fractional cost drop per capacity doubling
        "learning_rate_bop",
        "stack_lifetime",         # series, yr
        "payback_period",         # yr, annuity horizon for the whole unit
        "full_load_hours",        # h/yr
        "cost_of_capital",        # fraction/yr
        "efficiency",             # series, LHV fraction
        "fom_share",              # fixed O&M, fraction of investment per yr
        "transport_storage",      # $/MWh H2 (variable O&M)
        "electricity_price",      # series, $/MWh(el)
        "gas_price",              # series, $/MWh(gas), fuel only
        "co2_price",              # series, $/tCO2
        "emission_intensity",     # tCO2 per MWh(gas), upstream included
    )
    __slots__ = (*_fields, "_lcoh_memo")

    def __init__(self, scenario_id: str, investment_2023: float,
                 stack_share_2023: float, learning_rate_stack: float,
                 learning_rate_bop: float, stack_lifetime: TimeAnchoredSeries,
                 payback_period: float, full_load_hours: float,
                 cost_of_capital: float, efficiency: TimeAnchoredSeries,
                 fom_share: float, transport_storage: float,
                 electricity_price: TimeAnchoredSeries,
                 gas_price: TimeAnchoredSeries, co2_price: TimeAnchoredSeries,
                 emission_intensity: float):
        given = locals()   # the arguments by field name, before any other local
        if not isinstance(scenario_id, str):
            raise ValueError(f"scenario_id must be a string, got {scenario_id!r}")
        # series are finite by construction; float() fields may still be nan/inf.
        # A series must also cover the first year of every path, so that a late
        # first anchor is a bad parameter set rather than a failure mid-compute.
        for name in self._fields:
            value = given[name]
            if isinstance(value, float):
                if not math.isfinite(value):
                    raise ValueError(f"{name} must be finite, got {value}")
                value += 0.0   # -0.0 enters as 0.0
            elif isinstance(value, TimeAnchoredSeries) and \
                    value.first_year > FIRST_SUBSIDY_YEAR:
                raise ValueError(f"{name} must have an anchor by "
                                 f"{FIRST_SUBSIDY_YEAR}, got first anchor "
                                 f"{value.first_year}")
            object.__setattr__(self, name, value)
        for eta in self.efficiency.anchors().values():
            _check_flh_eta(self.full_load_hours, eta)
        for name in ("stack_share_2023", "learning_rate_stack", "learning_rate_bop"):
            if not 0.0 < getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be in (0, 1), got {getattr(self, name)}")
        if min(self.payback_period, *self.stack_lifetime.anchors().values()) < 1.0:
            raise ValueError("payback period and stack lifetime must be >= 1 year")
        if self.cost_of_capital <= 0.0:
            raise ValueError("cost of capital must be positive")
        # costs, prices and the emission intensity may be zero, never negative
        for name in ("investment_2023", "fom_share", "transport_storage",
                     "emission_intensity"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("electricity_price", "gas_price", "co2_price"):
            anchors = getattr(self, name).anchors()
            if min(anchors.values()) < 0.0:
                raise ValueError(f"{name} anchors must be >= 0, got {anchors}")
        object.__setattr__(self, "_lcoh_memo", {})

    def replace(self, **changes) -> ParamSet:
        """A new set with ``changes`` applied, built and checked by the constructor;
        an unknown name raises TypeError."""
        return ParamSet(**{**{name: getattr(self, name) for name in self._fields},
                           **changes})

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "ParamSet(" + ", ".join(f"{name}={getattr(self, name)!r}"
                                       for name in self._fields) + ")"

    def __reduce__(self):
        # copies and unpickled sets go through the checked constructor too
        return ParamSet, self._values()

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ParamSet":
        """A set from a parameter file's JSON object; a bad value's error names its key."""
        if not isinstance(raw, Mapping):
            raise ValueError(f"parameter file must be a JSON object, got "
                             f"{type(raw).__name__}")

        def get(key: str, convert=_number):
            try:
                return convert(raw[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"{key}: {exc}") from None

        try:
            return cls(
                scenario_id=raw["scenario_id"],
                investment_2023=get("investment_2023_usd_per_kw"),
                stack_share_2023=get("stack_share_2023"),
                learning_rate_stack=get("learning_rate_stack"),
                learning_rate_bop=get("learning_rate_bop"),
                stack_lifetime=get("stack_lifetime_yr", _series),
                payback_period=get("payback_period_yr"),
                full_load_hours=get("full_load_hours"),
                cost_of_capital=get("cost_of_capital"),
                efficiency=get("efficiency_lhv", _series),
                fom_share=get("fom_share_per_yr"),
                transport_storage=get("transport_storage_usd_per_mwh"),
                electricity_price=get("electricity_usd_per_mwh", _series),
                gas_price=get("gas_usd_per_mwh", _series),
                co2_price=get("co2_usd_per_t", _series),
                emission_intensity=get("gas_emission_intensity_t_per_mwh"),
            )
        except KeyError as exc:
            raise ValueError(f"parameter file is missing key {exc}") from None

    @classmethod
    def from_json(cls, path) -> "ParamSet":
        with open(path, encoding="utf-8-sig") as fh:   # a BOM allowed, as in the CSVs
            return cls.from_dict(json.load(fh, object_pairs_hook=_unique_keys))

    @classmethod
    def builtin(cls, scenario_id: str) -> "ParamSet":
        """Load one of the bundled parameter sets (central/progressive/conservative)."""
        from . import fixtures
        return cls.from_json(fixtures.params_path(scenario_id))


class CapacityTrajectory:
    """Annual electrolysis capacity additions on top of an installed base.

    ``additions_gw`` maps build year -> newly added capacity (GW el input);
    ``supported_gw`` is the part of each year's additions whose cost gap is
    already carried by demand-side policy and therefore needs no supply-side
    subsidy. Cumulative capacity at year t includes year-t additions.
    """

    def __init__(self, base_year: int, base_capacity_gw: float,
                 additions_gw: Mapping[int, float],
                 supported_gw: Mapping[int, float] | None = None):
        if not 0.0 < base_capacity_gw < math.inf:
            raise ValueError("base capacity must be positive and finite")
        self.base_year = int(base_year)
        self.base_capacity_gw = float(base_capacity_gw)
        adds = {int(y): float(v) for y, v in additions_gw.items()}
        sup = {int(y): float(v) for y, v in (supported_gw or {}).items()}
        for y, v in adds.items():
            if y <= self.base_year:
                raise ValueError(f"addition year {y} not after base year {base_year}")
            if not 0.0 <= v < math.inf:
                raise ValueError(f"capacity addition in {y} must be finite and >= 0")
        for y, v in sup.items():
            if not v >= 0.0:
                raise ValueError(f"supported capacity in {y} must be >= 0, got {v}")
            if v > adds.get(y, 0.0) + 1e-9:
                raise ValueError(
                    f"supported capacity exceeds additions in {y}: {v} > {adds.get(y, 0.0)}")
        self._additions = dict(sorted(adds.items()))
        self._supported = {y: sup.get(y, 0.0) for y in self._additions}
        # running sums of the additions, left to right as ``sum`` adds floats
        # up to Python 3.11: ``_running[k]`` covers the first k build years
        self._years = list(self._additions)
        self._running = [0.0, *accumulate(self._additions.values())]
        # net additions aligned with ``_years``, the subtraction of net_addition
        self._net = [a - self._supported[y] for y, a in self._additions.items()]

    @property
    def build_years(self) -> list[int]:
        return list(self._additions)

    @property
    def last_year(self) -> int:
        return max(self._additions, default=self.base_year)

    def addition(self, year: int) -> float:
        return self._additions.get(int(year), 0.0)

    def supported(self, year: int) -> float:
        return self._supported.get(int(year), 0.0)

    def net_addition(self, year: int) -> float:
        """Additions minus demand-policy-supported capacity (GW)."""
        return self.addition(year) - self.supported(year)

    def cumulative(self, year: int) -> float:
        """Cumulative capacity (GW) at the end of ``year``."""
        year = int(year)
        if year < self.base_year:
            raise ValueError(f"year {year} is before the base year {self.base_year}")
        return self.base_capacity_gw + self._running[bisect_right(self._years, year)]

    def total_additions(self) -> float:
        return sum(self._additions.values())

    def with_supported(self, supported_gw: Mapping[int, float]) -> "CapacityTrajectory":
        return CapacityTrajectory(self.base_year, self.base_capacity_gw,
                                  self._additions, supported_gw)

    def __repr__(self) -> str:
        return (f"CapacityTrajectory(base={self.base_capacity_gw} GW in "
                f"{self.base_year}, years {self.build_years[:1]}..{self.last_year})")


class InvestmentCosts(namedtuple("_InvestmentCosts", (
        "year", "stack", "balance_of_plant", "cumulative_capacity_gw"))):
    """Specific investment costs ($/kW el) split into stack and balance of plant."""
    __slots__ = ()

    @property
    def total(self) -> float:
        return self.stack + self.balance_of_plant

    @property
    def stack_share(self) -> float:
        return self.stack / self.total


def investment_costs(year: int, trajectory: CapacityTrajectory,
                     params: ParamSet) -> InvestmentCosts:
    """Learning-curve investment costs in ``year``.

    Stack and balance of plant learn separately from the 2023 base split;
    the stack share in later years is an output of the two learning curves.
    """
    year = int(year)
    c_t = trajectory.cumulative(year)
    ratio = c_t / trajectory.base_capacity_gw
    share, invest = params.stack_share_2023, params.investment_2023
    return InvestmentCosts(
        year, share * invest * ratio ** math.log2(1.0 - params.learning_rate_stack),
        (1.0 - share) * invest * ratio ** math.log2(1.0 - params.learning_rate_bop),
        c_t)


class LCOHBreakdown(namedtuple("_LCOHBreakdown", (
        "year", "electricity", "stack_capital", "bop_capital", "transport_storage",
        # inputs used, for reporting; the investments in $/kW
        "efficiency", "investment_stack", "investment_bop"))):
    """Levelised cost of hydrogen and its components, all in $/MWh H2 (LHV)."""
    __slots__ = ()

    @property
    def total(self) -> float:
        return (self.electricity + self.stack_capital + self.bop_capital
                + self.transport_storage)


def lcoh(year: int, trajectory: CapacityTrajectory, params: ParamSet) -> LCOHBreakdown:
    """Levelised cost of hydrogen in ``year`` for the given capacity trajectory.

    Capital terms annualize the year's learning-curve investment costs over
    the payback period (balance of plant) and the stack lifetime (stack);
    the electricity and capital terms are scaled by 1/efficiency to express
    them per MWh of hydrogen. Transport and storage enter as a flat $/MWh adder.
    """
    year = int(year)
    if year < FIRST_SUBSIDY_YEAR:
        raise ValueError(f"LCOH is defined from {FIRST_SUBSIDY_YEAR} onwards, got {year}")
    key = (year, trajectory.cumulative(year), trajectory.base_capacity_gw)
    breakdown = params._lcoh_memo.get(key)
    if breakdown is not None:
        return breakdown
    inv = investment_costs(year, trajectory, params)
    eta = params.efficiency.at(year)
    a_bop = annuity_factor(params.cost_of_capital, params.payback_period)
    a_stack = annuity_factor(params.cost_of_capital, params.stack_lifetime.at(year))
    flh = params.full_load_hours
    # $/kW / (h/yr) = $/kWh -> *1000 to $/MWh (electrical), /eta to $/MWh H2
    bop_cap = (a_bop + params.fom_share) * inv.balance_of_plant / flh * 1000.0 / eta
    stack_cap = (a_stack + params.fom_share) * inv.stack / flh * 1000.0 / eta
    breakdown = LCOHBreakdown(year, params.electricity_price.at(year) / eta,
                              stack_cap, bop_cap, params.transport_storage, eta,
                              inv.stack, inv.balance_of_plant)
    params._lcoh_memo[key] = breakdown
    return breakdown


def gas_cost(year: int, params: ParamSet, carbon_pricing: bool) -> float:
    """Total gas cost in ``year`` ($/MWh): the fuel price plus, with carbon
    pricing, the emission intensity times the CO2 price."""
    if year < FIRST_SUBSIDY_YEAR:
        raise ValueError(f"gas cost is defined from {FIRST_SUBSIDY_YEAR} onwards, "
                         f"got {year}")
    fuel = params.gas_price.at(year)
    co2 = params.emission_intensity * params.co2_price.at(year) if carbon_pricing else 0.0
    return fuel + co2
