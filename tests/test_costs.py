import copy
import json
import math
import pickle
import re

import pytest

from h2gap import (
    CapacityTrajectory,
    ParamSet,
    TimeAnchoredSeries,
    annuity_factor,
    fixtures,
    investment_costs,
    lcoh,
)


# ---------------------------------------------------------------------------
# TimeAnchoredSeries
# ---------------------------------------------------------------------------

def test_linear_interpolation_between_anchors():
    elec = TimeAnchoredSeries({2024: 60.0, 2030: 50.0, 2045: 35.0})
    assert elec.at(2027) == pytest.approx(55.0)


def test_anchor_years_are_exact():
    s = TimeAnchoredSeries({2024: 60.0, 2030: 50.0, 2045: 35.0})
    for year, value in ((2024, 60.0), (2030, 50.0), (2045, 35.0)):
        assert s.at(year) == value


def test_co2_path_interpolation():
    co2 = TimeAnchoredSeries({2024: 117, 2030: 149, 2035: 192, 2040: 246, 2045: 316})
    assert co2.at(2043) == pytest.approx(288.0)  # 246 + 3/5 * 70


def test_constant_after_last_anchor():
    s = TimeAnchoredSeries({2024: 19.0, 2030: 22.0})
    assert s.at(2035) == 22.0
    assert s.at(2100) == 22.0


def test_error_before_first_anchor():
    s = TimeAnchoredSeries({2024: 19.0, 2030: 22.0})
    with pytest.raises(ValueError):
        s.at(2023)


def test_single_anchor_is_constant_from_that_year():
    s = TimeAnchoredSeries({2024: 15.0})
    assert s.at(2024) == 15.0
    assert s.at(2050) == 15.0


def test_scaled_series():
    s = TimeAnchoredSeries({2024: 100.0, 2030: 200.0}).scaled(1.2)
    assert s.at(2024) == pytest.approx(120.0)
    assert s.at(2030) == pytest.approx(240.0)


def test_memoised_lookups_equal_a_fresh_series():
    anchors = {2024: 60.0, 2030: 50.0, 2045: 35.0}
    s = TimeAnchoredSeries(anchors)
    for year in (*range(2024, 2101), *range(2024, 2101), 2027.5):
        assert s.at(year) == TimeAnchoredSeries(anchors).at(year)
    for _ in range(3):   # an error is not cached: every call raises
        with pytest.raises(ValueError, match="before the first anchor"):
            s.at(2020)
    doubled = s.scaled(2.0)
    for year in (2027, 2040, 2060):
        assert doubled.at(year) == 2.0 * s.at(year)
        assert s.at(year) == TimeAnchoredSeries(anchors).at(year)


def test_series_rejects_two_anchors_in_one_year():
    with pytest.raises(ValueError, match="^anchor years must be unique$"):
        TimeAnchoredSeries({2024: 1.0, 2024.5: 2.0})   # int() maps both to 2024


@pytest.mark.parametrize("key", [2024.5, "2024", 2024.0])
def test_series_takes_any_key_int_accepts(key):
    # each value goes with its own key, not looked up again by int(key)
    s = TimeAnchoredSeries({key: 1.5, 2030: 3.0})
    assert s.anchors() == {2024: 1.5, 2030: 3.0}


def test_nan_year_raises_and_is_not_memoised():
    # bisect puts nan past every anchor, so an unguarded lookup would
    # return the last value and store one memo entry per nan object
    s = TimeAnchoredSeries({2024: 1.0, 2030: 2.0})
    for _ in range(3):
        with pytest.raises(ValueError, match="before the first anchor"):
            s.at(float("nan"))
    assert s._memo == {}


# ---------------------------------------------------------------------------
# Annuity factor
# ---------------------------------------------------------------------------

def test_annuity_factor_values():
    assert annuity_factor(0.08, 15) == pytest.approx(0.11683, abs=1e-5)
    assert annuity_factor(0.08, 10) == pytest.approx(0.14903, abs=1e-5)


def test_annuity_zero_rate_limit():
    assert annuity_factor(0.0, 10) == pytest.approx(0.1, rel=1e-12)
    assert annuity_factor(0.0, 15) == pytest.approx(1.0 / 15.0, rel=1e-12)


def test_annuity_domain_errors():
    with pytest.raises(ValueError):
        annuity_factor(0.08, 0.5)
    with pytest.raises(ValueError):
        annuity_factor(-0.01, 10)


# ---------------------------------------------------------------------------
# CapacityTrajectory
# ---------------------------------------------------------------------------

def test_cumulative_is_end_of_year():
    traj = CapacityTrajectory(2023, 1.86, {2024: 10.0, 2025: 20.0})
    assert traj.cumulative(2023) == pytest.approx(1.86)
    assert traj.cumulative(2024) == pytest.approx(11.86)
    assert traj.cumulative(2025) == pytest.approx(31.86)
    assert traj.cumulative(2030) == pytest.approx(31.86)  # flat after last addition
    assert traj.addition(2030) == traj.supported(2030) == traj.net_addition(2030) == 0.0


def test_cumulative_equals_summing_the_additions(pipeline_traj, extended_traj):
    # the prefix sums must reproduce the direct sum bit for bit: reports were
    # written with it (``sum`` adds floats left to right up to Python 3.11)
    with_gaps = CapacityTrajectory(
        pipeline_traj.base_year, pipeline_traj.base_capacity_gw,
        {**{y: pipeline_traj.addition(y) for y in pipeline_traj.build_years},
         2031: 0.1, 2033: 2.7})
    for traj in (pipeline_traj, extended_traj, fixtures.median_extended_pipeline(2100),
                 with_gaps):
        adds = [(y, traj.addition(y)) for y in traj.build_years]
        for year in range(traj.base_year, traj.last_year + 3):
            assert traj.cumulative(year) == \
                traj.base_capacity_gw + sum(v for y, v in adds if y <= year)


def test_trajectory_validation():
    with pytest.raises(ValueError):
        CapacityTrajectory(2023, 1.86, {2024: -1.0})
    with pytest.raises(ValueError):
        CapacityTrajectory(2023, 1.86, {2023: 5.0})   # not after base year
    with pytest.raises(ValueError):
        CapacityTrajectory(2023, 0.0, {2024: 5.0})
    with pytest.raises(ValueError):
        CapacityTrajectory(2023, 1.86, {2024: 5.0}, supported_gw={2024: 6.0})
    with pytest.raises(ValueError, match="supported capacity in 2024 must be >= 0"):
        CapacityTrajectory(2023, 1.86, {2024: 5.0}, supported_gw={2024: -1.0})
    with pytest.raises(ValueError, match="base capacity must be positive and finite"):
        CapacityTrajectory(2023, math.inf, {2024: 5.0})
    with pytest.raises(ValueError, match="must be finite and >= 0"):
        CapacityTrajectory(2023, 1.86, {2024: math.inf})
    # supported capacity may exceed the additions by rounding, not by more
    CapacityTrajectory(2023, 1.86, {2024: 0.3}, supported_gw={2024: 0.1 + 0.2})
    with pytest.raises(ValueError, match="exceeds additions"):
        CapacityTrajectory(2023, 1.86, {2024: 0.3}, supported_gw={2024: 0.3 + 1e-8})
    # no 2025 row: the message gives its additions as 0.0
    with pytest.raises(ValueError, match=r"exceeds additions in 2025: 0\.5 > 0\.0$"):
        CapacityTrajectory(2023, 1.86, {2024: 0.3}, supported_gw={2025: 0.5})
    traj = CapacityTrajectory(2023, 1.86, {2024: 5.0})
    with pytest.raises(ValueError):
        traj.cumulative(2022)


def test_with_supported_and_net_additions():
    traj = CapacityTrajectory(2023, 1.86, {2024: 10.0, 2025: 20.0})
    traj2 = traj.with_supported({2024: 4.0, 2025: 6.0})
    assert traj2.net_addition(2024) == pytest.approx(6.0)
    assert traj2.net_addition(2025) == pytest.approx(14.0)
    assert traj.net_addition(2024) == pytest.approx(10.0)  # original untouched


def test_extended_rejects_overlap():
    # the median continuation starts in 2031 and may not overwrite a build year
    reqs = fixtures.builtin_requirements()
    traj = CapacityTrajectory(2023, 1.86, {2024: 10.0, 2031: 1.0, 2033: 2.0})
    with pytest.raises(ValueError, match=r"extension overlaps existing build "
                                         r"years: \[2031, 2033\]"):
        fixtures.median_extended_pipeline(2040, pipeline=traj, requirements=reqs)
    ext = fixtures.median_extended_pipeline(
        2040, pipeline=CapacityTrajectory(2023, 1.86, {2024: 10.0}), requirements=reqs)
    assert ext.cumulative(2030) == pytest.approx(11.86)
    assert ext.build_years == [2024, *range(2031, 2041)]


# ---------------------------------------------------------------------------
# ParamSet
# ---------------------------------------------------------------------------

def test_builtin_central_matches_published_central_estimates(central):
    assert central.investment_2023 == 1850.0
    assert central.stack_share_2023 == 0.25
    assert central.learning_rate_stack == 0.18
    assert central.learning_rate_bop == 0.10
    assert central.payback_period == 15.0
    assert central.full_load_hours == 3750.0
    assert central.cost_of_capital == 0.08
    assert central.fom_share == 0.03
    assert central.transport_storage == 20.0
    assert central.emission_intensity == 0.265
    assert central.efficiency.at(2024) == 0.69
    assert central.efficiency.at(2045) == 0.76
    assert central.stack_lifetime.at(2024) == 10.0
    assert central.stack_lifetime.at(2030) == 15.0
    assert central.gas_price.at(2024) == 19.0
    assert central.gas_price.at(2030) == 22.0


def test_sensitivity_sets_inside_published_ranges(central, progressive, conservative):
    ranges = {
        "investment_2023": (1700.0, 2000.0),
        "stack_share_2023": (0.14, 0.29),
        "learning_rate_stack": (0.15, 0.20),
        "learning_rate_bop": (0.05, 0.12),
        "full_load_hours": (3250.0, 4250.0),
        "cost_of_capital": (0.06, 0.10),
        "fom_share": (0.015, 0.05),
    }
    for p in (central, progressive, conservative):
        for name, (lo, hi) in ranges.items():
            assert lo <= getattr(p, name) <= hi, (p.scenario_id, name)
    # carbon price sensitivity is +-20% of the central path
    assert progressive.co2_price.at(2030) == pytest.approx(1.2 * 149.0)
    assert conservative.co2_price.at(2030) == pytest.approx(0.8 * 149.0)


@pytest.mark.parametrize("name, value, message", [
    *((name, value, rf"^{name} must be in \(0, 1\), got {value}$")
      for name in ("stack_share_2023", "learning_rate_stack", "learning_rate_bop")
      for value in (0.0, 1.0, 1.5)),
    ("cost_of_capital", 0.0, "^cost of capital must be positive$"),
    ("cost_of_capital", -0.05, "^cost of capital must be positive$"),
])
def test_param_set_bounds(central, name, value, message):
    with pytest.raises(ValueError, match=message):
        central.replace(**{name: value})


@pytest.mark.parametrize("changes, message", [
    ({"scenario_id": None}, "^scenario_id must be a string, got None$"),
    ({"payback_period": math.nan}, "^payback_period must be finite, got nan$"),
    ({"gas_price": TimeAnchoredSeries({2025: 19.0})},
     "^gas_price must have an anchor by 2024, got first anchor 2025$"),
    ({"efficiency": TimeAnchoredSeries({2024: 0.7, 2030: 1.1})},
     r"^efficiency must be in \(0, 1\], got 1.1$"),
    ({"stack_lifetime": TimeAnchoredSeries({2024: 10.0, 2030: 0.5})},
     "^payback period and stack lifetime must be >= 1 year$"),
    ({"cost_of_capital": 0.0}, "^cost of capital must be positive$"),
    ({"fom_share": -0.01}, "^fom_share must be >= 0, got -0.01$"),
    ({"co2_price": TimeAnchoredSeries({2024: 100.0, 2050: -1.0})},
     r"^co2_price anchors must be >= 0, got \{2024: 100.0, 2050: -1.0\}$"),
])
def test_replace_reruns_every_check(central, changes, message):
    with pytest.raises(ValueError, match=message):
        central.replace(**changes)


def test_replace_rejects_an_unknown_name(central):
    with pytest.raises(TypeError, match="unexpected keyword argument 'fom'"):
        central.replace(fom=0.02)


@pytest.mark.parametrize("name", ["fom_share", "_lcoh_memo", "note"])
def test_a_set_cannot_be_changed_in_place(name):
    params = ParamSet.builtin("central")
    before = repr(params)
    with pytest.raises(AttributeError):
        setattr(params, name, {})
    with pytest.raises(AttributeError):
        delattr(params, name)
    assert repr(params) == before and params._lcoh_memo == {}
    assert not hasattr(params, "__dict__")


def test_repr_equality_and_hash_are_those_of_a_frozen_dataclass(central):
    # the field order, repr, == and hash that ParamSet had as a frozen dataclass
    assert ParamSet._fields == (
        "scenario_id", "investment_2023", "stack_share_2023", "learning_rate_stack",
        "learning_rate_bop", "stack_lifetime", "payback_period", "full_load_hours",
        "cost_of_capital", "efficiency", "fom_share", "transport_storage",
        "electricity_price", "gas_price", "co2_price", "emission_intensity")
    values = tuple(getattr(central, name) for name in ParamSet._fields)
    assert repr(central) == "ParamSet(" + ", ".join(
        f"{name}={value!r}" for name, value in zip(ParamSet._fields, values)) + ")"
    assert repr(central).startswith(
        "ParamSet(scenario_id='central', investment_2023=1850.0, "
        "stack_share_2023=0.25, ")
    assert hash(central) == hash(values)
    assert central == ParamSet(*values) and central != values
    assert central != central.replace(fom_share=central.fom_share + 0.01)
    assert central.__eq__(values) is NotImplemented


def test_copies_are_built_by_the_constructor(pipeline_traj):
    params = ParamSet.builtin("central")
    lcoh(2030, pipeline_traj, params)
    for copied in (copy.copy(params), pickle.loads(pickle.dumps(params))):
        assert type(copied) is ParamSet and repr(copied) == repr(params)
        assert copied._lcoh_memo == {}


def test_builtin_names_a_bundled_set():
    with pytest.raises(ValueError, match="^unknown scenario 'bogus', expected one of"):
        ParamSet.builtin("bogus")


def test_negative_zero_enters_a_set_as_zero(pipeline_traj, central):
    params = central.replace(transport_storage=-0.0,
                             electricity_price=TimeAnchoredSeries({2024: -0.0}))
    breakdown = lcoh(2030, pipeline_traj, params)
    assert breakdown.electricity == breakdown.transport_storage == 0.0
    assert all(math.copysign(1.0, value) == 1.0 for value in breakdown)


def test_from_dict_missing_key():
    with pytest.raises(ValueError, match="missing key"):
        ParamSet.from_dict({"scenario_id": "x"})


@pytest.mark.parametrize("key, value, message", [
    ("full_load_hours", True, "expected a number, got True"),
    ("cost_of_capital", False, "expected a number, got False"),
    ("payback_period_yr", "abc", "could not convert string to float: 'abc'"),
    ("fom_share_per_yr", None, "float() argument must be"),
    ("gas_usd_per_mwh", {"2024": True}, "expected a number, got True"),
    ("efficiency_lhv", {"2024": "abc"}, "could not convert string to float: 'abc'"),
    ("gas_usd_per_mwh", {"20x4": 20.0}, "invalid literal for int() with base 10: '20x4'"),
    ("co2_usd_per_t", {}, "series needs at least one anchor"),
    ("stack_lifetime_yr", 10, "expected a mapping of year to value, got 10"),
    ("full_load_hours", 10 ** 400, "int too large to convert to float"),
    ("gas_usd_per_mwh", {"2024": 19.0, "02024": 500.0},
     "anchor year 2024 is given twice"),
], ids=["bool", "false", "string", "null", "series-bool", "series-value",
        "series-key", "series-empty", "series-number", "huge-int", "series-year-twice"])
def test_from_dict_errors_name_the_key(key, value, message):
    raw = json.loads(fixtures.params_path("central").read_text())
    with pytest.raises(ValueError, match=f"^{key}: {re.escape(message)}"):
        ParamSet.from_dict({**raw, key: value})


@pytest.mark.parametrize("duplicate, key", [
    ('"full_load_hours": 5000', "full_load_hours"),
    ('"co2_usd_per_t": {"2024": 19.0, "2024": 500.0}', "2024"),
], ids=["top-level", "series"])
def test_from_json_rejects_a_key_given_twice(tmp_path, duplicate, key):
    # json.load would keep the later value; the file's last "}" closes the object
    text = fixtures.params_path("central").read_text().rstrip()
    path = tmp_path / "params.json"
    path.write_text(f"{text[:-1]}, {duplicate}}}")
    with pytest.raises(ValueError, match=f"key '{key}' is given twice"):
        ParamSet.from_json(path)


@pytest.mark.parametrize("raw", [[], "central", 1, None])
def test_from_dict_needs_an_object(raw):
    with pytest.raises(ValueError, match="parameter file must be a JSON object"):
        ParamSet.from_dict(raw)


# ---------------------------------------------------------------------------
# Learning-curve investment costs
# ---------------------------------------------------------------------------

def test_base_year_split(pipeline_traj, central):
    inv = investment_costs(2023, pipeline_traj, central)
    assert inv.stack == pytest.approx(462.5)
    assert inv.balance_of_plant == pytest.approx(1387.5)
    assert inv.total == pytest.approx(1850.0)


def test_one_doubling_applies_learning_rates_exactly(central):
    traj = CapacityTrajectory(2023, 1.86, {2024: 1.86})  # exactly one doubling
    inv = investment_costs(2024, traj, central)
    assert inv.stack == pytest.approx(462.5 * 0.82, rel=1e-12)
    assert inv.balance_of_plant == pytest.approx(1387.5 * 0.90, rel=1e-12)


def test_2030_total_on_bundled_pipeline(pipeline_traj, central):
    assert pipeline_traj.cumulative(2030) == pytest.approx(441.0)
    inv = investment_costs(2030, pipeline_traj, central)
    assert inv.total == pytest.approx(701.0, rel=0.01)


def test_monotone_nonincreasing_in_capacity(central):
    traj = CapacityTrajectory(2023, 1.86, {y: 10.0 * (y - 2023) for y in range(2024, 2031)})
    totals = [investment_costs(y, traj, central).total for y in range(2023, 2031)]
    assert all(b <= a for a, b in zip(totals, totals[1:]))


def test_halving_learning_rate_raises_costs(central):
    slow = central.replace(learning_rate_stack=0.09, learning_rate_bop=0.05)
    traj = CapacityTrajectory(2023, 1.86, {2024: 50.0})
    assert investment_costs(2024, traj, slow).total \
        > investment_costs(2024, traj, central).total


def test_year_before_base_is_error(pipeline_traj, central):
    with pytest.raises(ValueError):
        investment_costs(2022, pipeline_traj, central)


def test_stack_share_declines_under_central_learning(pipeline_traj, central):
    s24 = investment_costs(2024, pipeline_traj, central).stack_share
    s30 = investment_costs(2030, pipeline_traj, central).stack_share
    assert s30 < s24 < central.stack_share_2023


# ---------------------------------------------------------------------------
# LCOH
# ---------------------------------------------------------------------------

def _flat_params(**overrides):
    raw = dict(
        scenario_id="toy", investment_2023=0.0, stack_share_2023=0.25,
        learning_rate_stack=0.18, learning_rate_bop=0.10,
        stack_lifetime=TimeAnchoredSeries({2024: 10.0}), payback_period=15.0,
        full_load_hours=3750.0, cost_of_capital=0.08,
        efficiency=TimeAnchoredSeries({2024: 0.69}), fom_share=0.03,
        transport_storage=20.0,
        electricity_price=TimeAnchoredSeries({2024: 0.0}),
        gas_price=TimeAnchoredSeries({2024: 19.0}),
        co2_price=TimeAnchoredSeries({2024: 117.0}),
        emission_intensity=0.265,
    )
    raw.update(overrides)
    return ParamSet(**raw)


def test_only_transport_storage_remains_without_capex_and_power(pipeline_traj):
    params = _flat_params()
    b = lcoh(2025, pipeline_traj, params)
    assert b.total == pytest.approx(20.0, abs=1e-12)
    assert b.electricity == 0.0
    assert b.stack_capital == 0.0
    assert b.bop_capital == 0.0


def test_2030_central_total(pipeline_traj, central):
    # published cost-gap of 107 $/MWh plus a 22 $/MWh gas price
    assert lcoh(2030, pipeline_traj, central).total == pytest.approx(129.0, abs=2.0)


def test_breakdown_components_sum_to_total(pipeline_traj, central):
    for year in (2024, 2027, 2030):
        b = lcoh(year, pipeline_traj, central)
        assert b.total == pytest.approx(
            b.electricity + b.stack_capital + b.bop_capital + b.transport_storage,
            abs=1e-9)


def test_collapses_to_single_annuity_when_lifetimes_match(pipeline_traj, central):
    merged = central.replace(
        stack_lifetime=TimeAnchoredSeries({2024: central.payback_period}))
    for year in (2024, 2030):
        b = lcoh(year, pipeline_traj, merged)
        inv = investment_costs(year, pipeline_traj, merged)
        a = annuity_factor(merged.cost_of_capital, merged.payback_period)
        eta = merged.efficiency.at(year)
        single = ((a + merged.fom_share) * inv.total / merged.full_load_hours
                  * 1000.0 + merged.electricity_price.at(year)) / eta \
            + merged.transport_storage
        assert b.total == pytest.approx(single, abs=1e-9)


@pytest.mark.parametrize("field,delta,direction", [
    ("cost_of_capital", +0.01, +1),
    ("transport_storage", +5.0, +1),
    ("full_load_hours", +250.0, -1),
])
def test_lcoh_monotonic_in_scalar_inputs(pipeline_traj, central, field, delta, direction):
    bumped = central.replace(**{field: getattr(central, field) + delta})
    diff = lcoh(2030, pipeline_traj, bumped).total - lcoh(2030, pipeline_traj, central).total
    assert math.copysign(1.0, diff) == direction


def test_lcoh_increasing_in_electricity_price(pipeline_traj, central):
    bumped = central.replace(
        electricity_price=central.electricity_price.scaled(1.1))
    assert lcoh(2030, pipeline_traj, bumped).total \
        > lcoh(2030, pipeline_traj, central).total


def test_lcoh_decreasing_in_efficiency(pipeline_traj, central):
    better = central.replace(efficiency=TimeAnchoredSeries({2024: 0.74}))
    assert lcoh(2030, pipeline_traj, better).total \
        < lcoh(2030, pipeline_traj, central).total


def test_lcoh_before_2024_is_error(pipeline_traj, central):
    with pytest.raises(ValueError):
        lcoh(2023, pipeline_traj, central)


# ---------------------------------------------------------------------------
# Bit-exactness of the per-set constants against the per-call formulas
# ---------------------------------------------------------------------------

def _perturbed_raw(rng, raw, spread=0.05):
    """Every number scaled by its own factor; the payback period stays integral."""
    out = {}
    for key, value in raw.items():
        if isinstance(value, dict):
            out[key] = {y: v * rng.uniform(1 - spread, 1 + spread)
                        for y, v in value.items()}
        elif isinstance(value, (int, float)) and key != "payback_period_yr":
            out[key] = value * rng.uniform(1 - spread, 1 + spread)
        else:
            out[key] = value
    return out


def _per_call_lcoh(year, traj, p):
    """(lcoh fields, investment cost fields), every constant recomputed per call
    and every series read from a fresh, unmemoised copy."""
    def at(series):
        return TimeAnchoredSeries(series.anchors()).at(year)

    c_t = traj.cumulative(year)
    ratio = c_t / traj.base_capacity_gw
    stack0 = p.stack_share_2023 * p.investment_2023
    bop0 = (1.0 - p.stack_share_2023) * p.investment_2023
    stack = stack0 * ratio ** math.log2(1.0 - p.learning_rate_stack)
    bop = bop0 * ratio ** math.log2(1.0 - p.learning_rate_bop)
    eta = at(p.efficiency)
    a_bop = annuity_factor(p.cost_of_capital, p.payback_period)
    a_stack = annuity_factor(p.cost_of_capital, at(p.stack_lifetime))
    bop_cap = (a_bop + p.fom_share) * bop / p.full_load_hours * 1000.0 / eta
    stack_cap = (a_stack + p.fom_share) * stack / p.full_load_hours * 1000.0 / eta
    elec = at(p.electricity_price) / eta
    return ((year, elec, stack_cap, bop_cap, p.transport_storage, eta, stack, bop),
            (year, stack, bop, c_t))


def test_lcoh_equals_per_call_formulas_bit_for_bit():
    import json
    import random

    traj = fixtures.median_extended_pipeline(2100)
    rng = random.Random(20240)
    for k in range(48):
        scenario = ("central", "progressive", "conservative")[k % 3]
        raw = json.loads(fixtures.params_path(scenario).read_text())
        params = ParamSet.from_dict(_perturbed_raw(rng, raw))
        for year in range(2024, 2101):
            want_lcoh, want_inv = _per_call_lcoh(year, traj, params)
            b = lcoh(year, traj, params)
            assert b == want_lcoh, (k, year)
            assert b.total == (want_lcoh[1] + want_lcoh[2] + want_lcoh[3]
                               + want_lcoh[4])
            assert investment_costs(year, traj, params) == want_inv, (k, year)


def test_replace_gives_a_set_with_its_own_lcoh(pipeline_traj, central):
    assert central.replace() == central
    slow = central.replace(learning_rate_stack=0.09, payback_period=20.0)
    for year in (2024, 2030, 2045):
        got = lcoh(year, pipeline_traj, slow)
        assert got == _per_call_lcoh(year, pipeline_traj, slow)[0]
        assert got != lcoh(year, pipeline_traj, central)


# ---------------------------------------------------------------------------
# The per-set LCOH memo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("order", [("bundled", "extended"), ("extended", "bundled")])
def test_memoised_lcoh_equals_per_call_formulas_in_either_order(order):
    # the two trajectories share their learning states up to the pipeline's
    # last build year, so the second one is served partly from the memo
    trajs = {"bundled": fixtures.builtin_pipeline(),
             "extended": fixtures.median_extended_pipeline(2100)}
    params = ParamSet.builtin("central")
    for name in order:
        traj = trajs[name]
        for year in range(2024, 2101):
            b = lcoh(year, traj, params)
            assert b == _per_call_lcoh(year, traj, params)[0], (name, year)
            assert lcoh(year, traj, params) is b


def test_memo_keys_on_the_base_capacity(pipeline_traj):
    params = ParamSet.builtin("central")
    adds = {y: pipeline_traj.addition(y) for y in pipeline_traj.build_years}
    doubled = CapacityTrajectory(pipeline_traj.base_year,
                                 2 * pipeline_traj.base_capacity_gw, adds)
    b = lcoh(2030, pipeline_traj, params)
    other = lcoh(2030, doubled, params)
    assert len(params._lcoh_memo) == 2
    assert other != b
    assert other == _per_call_lcoh(2030, doubled, params)[0]
    # the same cumulative capacity on a different base is another learning ratio
    small = CapacityTrajectory(2023, 1.0, {2024: 3.0})
    large = CapacityTrajectory(2023, 2.0, {2024: 2.0})
    assert small.cumulative(2030) == large.cumulative(2030)
    for traj in (small, large):
        assert lcoh(2030, traj, params) == _per_call_lcoh(2030, traj, params)[0]
    assert len(params._lcoh_memo) == 4


def test_replace_starts_an_empty_memo(pipeline_traj):
    params = ParamSet.builtin("central")
    lcoh(2030, pipeline_traj, params)
    assert len(params._lcoh_memo) == 1
    assert params.replace()._lcoh_memo == {}
    assert params.replace(full_load_hours=4000.0)._lcoh_memo == {}


def test_errors_raise_on_every_call_and_are_never_stored(pipeline_traj):
    params = ParamSet.builtin("central")
    late = CapacityTrajectory(2030, 10.0, {2031: 1.0})
    with pytest.raises(ValueError) as direct:
        investment_costs(2025, late, params)
    for _ in range(3):
        with pytest.raises(ValueError, match="defined from 2024 onwards, got 2023"):
            lcoh(2023, pipeline_traj, params)
        with pytest.raises(ValueError) as before_base:
            lcoh(2025, late, params)
        assert str(before_base.value) == str(direct.value) \
            == "year 2025 is before the base year 2030"
    assert params._lcoh_memo == {}


def test_memo_is_not_a_field(pipeline_traj):
    params = ParamSet.builtin("central")
    untouched = params.replace()
    lcoh(2030, pipeline_traj, params)
    assert "_lcoh_memo" not in ParamSet._fields
    assert "_lcoh_memo" not in repr(params)
    assert repr(params) == repr(untouched)
    assert params == untouched and hash(params) == hash(untouched)


def test_cost_records_are_named_tuples(pipeline_traj, central):
    inv = investment_costs(2030, pipeline_traj, central)
    assert inv == tuple(inv) and inv._fields == (
        "year", "stack", "balance_of_plant", "cumulative_capacity_gw")
    assert inv._replace(stack=0.0).total == inv.balance_of_plant
    b = lcoh(2030, pipeline_traj, central)
    assert b._replace(transport_storage=0.0).total \
        == b.electricity + b.stack_capital + b.bop_capital
