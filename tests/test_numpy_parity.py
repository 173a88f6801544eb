"""The stdlib interpolation and quartiles equal numpy's bit for bit.

``TimeAnchoredSeries.at`` and ``stats`` replace ``numpy.interp`` and
``numpy.percentile`` at run time; numpy is only the oracle here. Every
comparison is ``==``: the reports must not move by a single ulp.
"""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import h2gap
from h2gap import ScenarioRequirement, TimeAnchoredSeries, fixtures, stats

SRC_DIR = Path(h2gap.__file__).resolve().parents[1]


def _value(rng: random.Random) -> float:
    """A mix of round figures, as in the bundled files, and arbitrary floats."""
    kind = rng.randrange(3)
    if kind == 0:
        return float(rng.randint(1, 2000))
    if kind == 1:
        return round(rng.uniform(0.01, 1000.0), 2)
    return rng.uniform(1e-3, 1e4)


def _random_series(rng: random.Random, n_anchors: int) -> dict[int, float]:
    years = rng.sample(range(2000, 2101), n_anchors)
    return {y: _value(rng) for y in years}


def _query_years(rng: random.Random, anchors: dict[int, float]) -> list[float]:
    first, last = min(anchors), max(anchors)
    years = list(anchors)                                         # on anchors
    years += [rng.randint(first, last + 30) for _ in range(8)]    # integer
    years += [rng.uniform(first, last + 5) for _ in range(8)]     # fractional
    years += [last + rng.uniform(0.0, 50.0), float(last + 1)]     # after the end
    return years


@pytest.mark.parametrize("n_anchors", [1, 2, 3, 5, 12])
def test_series_at_equals_numpy_interp(n_anchors):
    rng = random.Random(20240 + n_anchors)
    for _ in range(300):
        anchors = _random_series(rng, n_anchors)
        series = TimeAnchoredSeries(anchors)
        xs = sorted(anchors)
        fp = [anchors[x] for x in xs]
        for year in _query_years(rng, anchors):
            assert series.at(year) == float(np.interp(year, xs, fp)), (anchors, year)


def test_bundled_series_equal_numpy_interp(central, progressive, conservative):
    for params in (central, progressive, conservative):
        for series in (params.stack_lifetime, params.efficiency,
                       params.electricity_price, params.gas_price, params.co2_price):
            anchors = series.anchors()
            xs = sorted(anchors)
            fp = [anchors[x] for x in xs]
            for year in range(series.first_year, 2101):
                assert series.at(year) == float(np.interp(year, xs, fp))


def _reqs(values, year=2030):
    return [ScenarioRequirement(source=f"S{i:03d}", scenario_name="1p5C",
                                year=year, capacity_gw=v)
            for i, v in enumerate(values)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7, 8, 15, 16, 41, 100])
def test_stats_quartiles_equal_numpy_percentile(n):
    rng = random.Random(7000 + n)
    for _ in range(300):
        values = [_value(rng) for _ in range(n)]
        st = stats(_reqs(values), 2030)
        q1, med, q3 = (float(q) for q in np.percentile(values, [25.0, 50.0, 75.0]))
        assert (st.q1, st.median, st.q3) == (q1, med, q3), values
        assert (st.minimum, st.maximum, st.n) == (min(values), max(values), n)


def test_bundled_requirement_stats_equal_numpy_percentile():
    reqs = fixtures.builtin_requirements()
    for year in sorted({r.year for r in reqs}):
        for exclude in (True, False):
            values = [r.capacity_gw for r in reqs
                      if r.year == year and not (exclude and r.outlier)]
            st = stats(reqs, year, exclude_outliers=exclude)
            expected = [float(q) for q in np.percentile(values, [25.0, 50.0, 75.0])]
            assert [st.q1, st.median, st.q3] == expected


def test_cli_import_leaves_numpy_unloaded():
    code = "import h2gap.cli, sys; assert 'numpy' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": str(SRC_DIR)}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
