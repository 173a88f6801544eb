"""Bundled data fixtures and their loaders.

The package ships a synthetic-but-consistent data bundle under
``data/fixtures/``: three parameter files (central / progressive /
conservative), a capacity-addition trajectory for the announced project
pipeline, a scenario-requirement table and three small project snapshots.
``H2GAP_DATA_DIR`` overrides the bundle location, e.g. to point the toolkit
at real database exports in the same schema. The path helpers return ``str``
paths joined with :mod:`os.path`; every loader takes a ``str`` or a
``pathlib.Path``.

:func:`median_extended_pipeline` continues a pipeline past 2030 along the
2040 and 2050 scenario medians, the one place that continuation is built.
"""

from __future__ import annotations

import math
import os

# CapacityTrajectory is imported by the two functions that build one, so that
# a caller of the path helpers (``ambition``) does not load the cost side
from .scenarios import ScenarioRequirement, load_requirements, stats
from .units import FIRST_SUBSIDY_YEAR, SCENARIO_IDS, read_csv

__all__ = [
    "data_dir", "params_path", "pipeline_path", "requirements_path",
    "snapshot_path", "load_pipeline", "builtin_pipeline",
    "builtin_requirements", "median_extended_pipeline",
]

ENV_DATA_DIR = "H2GAP_DATA_DIR"
_PIPELINE_COLUMNS = ("year", "additions_gw")   # what load_pipeline reads


def data_dir() -> str:
    return (os.environ.get(ENV_DATA_DIR)
            or os.path.join(os.path.dirname(__file__), "data", "fixtures"))


def params_path(scenario_id: str) -> str:
    if scenario_id not in SCENARIO_IDS:
        raise ValueError(f"unknown scenario {scenario_id!r}, "
                         f"expected one of {SCENARIO_IDS}")
    return os.path.join(data_dir(), f"params_{scenario_id}.json")


def pipeline_path() -> str:
    return os.path.join(data_dir(), "pipeline_additions.csv")


def requirements_path() -> str:
    return os.path.join(data_dir(), "scenario_requirements.csv")


def snapshot_path(vintage_year: int) -> str:
    return os.path.join(data_dir(), f"snap{vintage_year}.csv")


def load_pipeline(path) -> CapacityTrajectory:
    """Read a capacity trajectory CSV (columns ``year,additions_gw``; others ignored).

    The earliest row is the installed base: cumulative capacity at the end of
    that year, which must be positive and no later than the first year of the
    cost path (``units.FIRST_SUBSIDY_YEAR``). Later rows are annual additions,
    finite and >= 0, built in that year or later: the learning curve is
    anchored at 2023 costs, so an earlier cohort has no LCOH. Bad rows raise
    one SnapshotDataError naming their lines, a missing column
    SnapshotSchemaError.
    """
    from .costs import CapacityTrajectory

    rows: dict[int, float] = {}
    lines: dict[int, int] = {}
    with read_csv(path, _PIPELINE_COLUMNS) as (records, index, bad, line):
        year_col, gw_col = (index[c] for c in _PIPELINE_COLUMNS)
        for row in records:
            try:
                year, gw = int(row[year_col]), float(row[gw_col])
            except ValueError:
                bad("expected year and additions_gw columns with numeric values")
                continue
            if year in rows:
                bad(f"duplicate year {year}")
            elif not 0.0 <= gw < math.inf:
                bad(f"additions_gw must be finite and >= 0, got {gw}")
            else:
                rows[year], lines[year] = gw, line()
        if rows:
            base_year = min(rows)
            if rows[base_year] == 0.0:
                bad(f"the installed base in {base_year} must be positive, got 0.0",
                    line=lines[base_year])
            if base_year > FIRST_SUBSIDY_YEAR:
                bad(f"the installed base must be in {FIRST_SUBSIDY_YEAR} or earlier, "
                    f"got {base_year}", line=lines[base_year])
            for year in rows:
                if base_year < year < FIRST_SUBSIDY_YEAR:
                    bad(f"additions must be in {FIRST_SUBSIDY_YEAR} or later, got "
                        f"{year}", line=lines[year])
    if len(rows) < 2:
        raise ValueError(f"{path}: need a base year plus at least one addition year")
    base = rows.pop(base_year)
    return CapacityTrajectory(base_year=base_year, base_capacity_gw=base,
                              additions_gw=rows)


def builtin_pipeline() -> CapacityTrajectory:
    return load_pipeline(pipeline_path())


def builtin_requirements() -> list[ScenarioRequirement]:
    return load_requirements(requirements_path())


def median_extended_pipeline(horizon: int,
                             pipeline: CapacityTrajectory | None = None,
                             requirements: list[ScenarioRequirement] | None = None,
                             ) -> CapacityTrajectory:
    """Pipeline trajectory continued past 2030 along the scenario medians.

    Annual additions after 2030 are piecewise-constant, so that cumulative
    capacity is linear through (2030, pipeline), (2040, median 2040) and
    (2050, median 2050), with the medians taken over the requirements
    (outliers excluded); additions are zero after 2050. The continuation
    drives post-2030 learning and, when asked for, post-2030 subsidy cohorts.
    A pipeline that already reaches the horizon, or a horizon up to 2030, is
    returned unchanged. Supported capacity carries over.
    """
    from .costs import CapacityTrajectory

    pipe = pipeline if pipeline is not None else builtin_pipeline()
    if horizon <= max(pipe.last_year, 2030):
        return pipe
    reqs = requirements if requirements is not None else builtin_requirements()
    c2030 = pipe.cumulative(2030)
    m40 = stats(reqs, 2040).median
    m50 = stats(reqs, 2050).median
    if m40 < c2030 or m50 < m40:
        raise ValueError("cumulative targets must be non-decreasing: "
                         f"{c2030} (2030), {m40} (2040), {m50} (2050)")
    overlap = [y for y in pipe.build_years if y > 2030]
    if overlap:
        raise ValueError(f"extension overlaps existing build years: {overlap}")
    step_2030s, step_2040s = (m40 - c2030) / 10.0, (m50 - m40) / 10.0
    additions = {y: pipe.addition(y) for y in pipe.build_years}
    for year in range(2031, horizon + 1):
        additions[year] = (step_2030s if year <= 2040 else
                           step_2040s if year <= 2050 else 0.0)
    return CapacityTrajectory(pipe.base_year, pipe.base_capacity_gw, additions,
                              {y: pipe.supported(y) for y in pipe.build_years})
