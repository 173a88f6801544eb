"""Electrolysis requirements in stringent climate scenarios and the ambition gap.

Holds per-scenario 2030-2050 electrolysis capacity requirements, computes
distribution statistics (quartiles interpolated linearly between closest
ranks: Hyndman & Fan type 7, the same as numpy's default) and the signed gap
between a requirement and the project pipeline. The capacity trajectory that
continues the pipeline past 2030 along the scenario medians is built by
:func:`h2gap.fixtures.median_extended_pipeline`; this module needs nothing
from the cost side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .units import _parse_bool, production_to_capacity, read_csv

__all__ = [
    "ScenarioRequirement",
    "RequirementStats",
    "load_requirements",
    "stats",
    "ambition_gap",
]

# Scenario sources that report hydrogen production instead of electrolysis
# capacity are converted at load time with these fixed assumptions.
CONVERSION_FLH = 3750.0
CONVERSION_EFFICIENCY = 0.69

_REQUIRED_COLUMNS = ("source", "scenario_name", "year", "capacity_gw",
                     "production_mt_per_yr", "outlier")


@dataclass(frozen=True)
class ScenarioRequirement:
    """One (source, scenario, year) electrolysis capacity requirement in GW."""
    source: str
    scenario_name: str
    year: int
    capacity_gw: float
    outlier: bool = False
    approximate: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.capacity_gw) and self.capacity_gw > 0.0):
            raise ValueError(f"requirement capacity must be positive and finite: {self}")


@dataclass(frozen=True)
class RequirementStats:
    year: int
    n: int
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float


def load_requirements(path) -> list[ScenarioRequirement]:
    """Read a scenario requirement CSV.

    Columns: ``source,scenario_name,year,capacity_gw,production_mt_per_yr,
    outlier[,approximate]``, an absent ``approximate`` reading as false.
    Exactly one of ``capacity_gw`` / ``production_mt_per_yr`` is filled per
    row; production volumes become input capacity at 3750 full-load hours and
    69% efficiency. Duplicate (source, scenario_name, year) keys are an error.
    Bad rows raise one SnapshotDataError naming their lines, schema errors
    SnapshotSchemaError.
    """
    reqs: list[ScenarioRequirement] = []
    seen: set[tuple] = set()
    with read_csv(path, _REQUIRED_COLUMNS) as (rows, index, bad, _):
        positions = [index.get(c) for c in (*_REQUIRED_COLUMNS, "approximate")]
        for row in rows:
            # an absent approximate column reads as empty
            source, scenario_name, year, cap, prod, outlier, approximate = (
                row[i].strip() if i is not None else "" for i in positions)
            try:
                if bool(cap) == bool(prod):
                    raise ValueError("exactly one of capacity_gw and "
                                     "production_mt_per_yr must be given")
                capacity = float(cap) if cap else production_to_capacity(
                    float(prod), CONVERSION_FLH, CONVERSION_EFFICIENCY)
                req = ScenarioRequirement(source, scenario_name, int(year), capacity,
                                          _parse_bool(outlier), _parse_bool(approximate))
                key = (req.source, req.scenario_name, req.year)
                if key in seen:
                    raise ValueError(f"duplicate scenario key {key}")
            except ValueError as exc:
                bad(str(exc))
                continue
            seen.add(key)
            reqs.append(req)
    return reqs


def _quantile(xs: list[float], q: float) -> float:
    """Quantile ``q`` in [0, 1] of the sorted list ``xs``, Hyndman & Fan type 7.

    The value at position ``q * (n - 1)`` is interpolated linearly between
    the two closest ranks. The lerp is evaluated from whichever end is
    nearer, the association that numpy's default "linear" method uses, so
    the result equals ``numpy.percentile`` bit for bit.
    """
    pos = q * (len(xs) - 1)
    j = int(pos)
    t = pos - j
    a, b = xs[j], xs[min(j + 1, len(xs) - 1)]   # b == a at the top rank
    if t < 0.5:
        return a + (b - a) * t
    return b - (b - a) * (1.0 - t)


def stats(requirements: list[ScenarioRequirement], year: int,
          exclude_outliers: bool = True) -> RequirementStats:
    """Five-number summary of the requirements for one target year.

    Quartiles are interpolated linearly between closest ranks (Hyndman &
    Fan type 7, the same as numpy's default percentile method).
    """
    values = sorted(r.capacity_gw for r in requirements
                    if r.year == year and not (exclude_outliers and r.outlier))
    if not values:
        raise ValueError(f"no scenario requirements for {year} "
                         f"(exclude_outliers={exclude_outliers})")
    return RequirementStats(year=year, n=len(values), minimum=values[0],
                            q1=_quantile(values, 0.25),
                            median=_quantile(values, 0.5),
                            q3=_quantile(values, 0.75), maximum=values[-1])


def ambition_gap(requirement_gw: float, pipeline_gw: float) -> float:
    """Scenario requirement minus announced pipeline, in GW.

    Negative values mean the pipeline already exceeds the requirement.
    """
    return requirement_gw - pipeline_gw

