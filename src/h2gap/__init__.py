"""h2gap: green hydrogen project tracking, levelised cost and subsidy-gap toolkit.

The package quantifies three things for green hydrogen:

* the *past implementation gap* -- how announced electrolyser projects fared
  against their announced launch years, tracked across database vintages;
* the *ambition gap* -- announced 2030 capacity versus requirements in
  stringent climate scenarios;
* the *future implementation gap* -- the cost gap of green hydrogen against
  natural gas under endogenous learning, and the subsidies needed to close it.

Everything is deterministic: pure functions over immutable inputs.

The public names below are re-exported lazily (PEP 562): ``import h2gap``
loads no submodule, and ``h2gap.lcoh`` or ``from h2gap import lcoh`` imports
only the module that defines the name, so a command pays only for the side
of the package it uses.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "costs": (
        "CapacityTrajectory", "InvestmentCosts", "LCOHBreakdown", "ParamSet",
        "TimeAnchoredSeries", "annuity_factor", "gas_cost", "investment_costs",
        "lcoh",
    ),
    "projects": (
        "Fate", "FateRates", "ProjectRecord", "SankeyData", "Snapshot",
        "Status", "TransitionReport", "fate_rates", "load_snapshot",
        "pipeline_gw", "sankey_flows", "track",
    ),
    "scenarios": (
        "RequirementStats", "ScenarioRequirement", "ambition_gap",
        "load_requirements", "stats",
    ),
    "subsidies": (
        "BudgetSupportResult", "SubsidySchedule", "annual_subsidies",
        "capacity_supported_by_budget", "cost_gap", "cumulative_subsidies",
        "demand_supported_additions", "parity_year",
    ),
    "units": (
        "LHV_KWH_PER_KG", "capacity_to_production", "production_to_capacity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name in _EXPORTS:   # h2gap.costs etc. without importing them first
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value   # later lookups skip this hook
    return value
