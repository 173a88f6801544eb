import ast
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import h2gap
from h2gap import capacity_to_production, production_to_capacity
from h2gap.units import LHV_KWH_PER_KG, fold_sum


def test_seven_mt_at_reference_assumptions():
    # 7e9 kg * 33.33 kWh/kg / (3750 h * 0.708)
    assert production_to_capacity(7.0, 3750.0, 0.708) == pytest.approx(87.876, abs=0.01)


def test_zero_mass_gives_zero_capacity():
    assert production_to_capacity(0.0, 3750.0, 0.69) == 0.0


def test_full_year_perfect_efficiency():
    assert production_to_capacity(7.0, 8760.0, 1.0) == pytest.approx(26.63, abs=0.01)


def test_pipeline_scale_production():
    assert capacity_to_production(441.0, 3750.0, 0.708) == pytest.approx(35.13, abs=0.01)


def test_zero_capacity_gives_zero_production():
    assert capacity_to_production(0.0, 3750.0, 0.69) == 0.0


@pytest.mark.parametrize("mass", [0.1, 1.0, 7.0, 120.0])
@pytest.mark.parametrize("flh,eta", [(3750.0, 0.69), (3250.0, 0.708), (4250.0, 0.76)])
def test_round_trip_is_identity(mass, flh, eta):
    back = capacity_to_production(production_to_capacity(mass, flh, eta), flh, eta)
    assert back == pytest.approx(mass, rel=1e-9)
    gw = production_to_capacity(mass, flh, eta)
    assert production_to_capacity(capacity_to_production(gw, flh, eta), flh, eta) \
        == pytest.approx(gw, rel=1e-9)


def test_linearity_in_first_argument():
    base = production_to_capacity(3.0, 3750.0, 0.69)
    assert production_to_capacity(6.0, 3750.0, 0.69) == pytest.approx(2 * base, rel=1e-12)
    base_m = capacity_to_production(10.0, 3750.0, 0.69)
    assert capacity_to_production(25.0, 3750.0, 0.69) == pytest.approx(2.5 * base_m, rel=1e-12)


def test_lhv_constant_as_printed():
    assert LHV_KWH_PER_KG == 33.33


@pytest.mark.parametrize("flh,eta", [
    (0.0, 0.69), (-10.0, 0.69), (9000.0, 0.69),
    (3750.0, 0.0), (3750.0, -0.1), (3750.0, 1.5),
])
def test_domain_errors(flh, eta):
    with pytest.raises(ValueError):
        production_to_capacity(1.0, flh, eta)
    with pytest.raises(ValueError):
        capacity_to_production(1.0, flh, eta)


@pytest.mark.parametrize("flh,eta", [(1.0, 0.69), (0.5, 1e-9)])
def test_domain_edges_near_zero_are_accepted(flh, eta):
    # a single full-load hour, or less, is in (0, 8760]
    gw = production_to_capacity(1.0, flh, eta)
    assert capacity_to_production(gw, flh, eta) == pytest.approx(1.0, rel=1e-9)


def test_negative_quantities_rejected():
    with pytest.raises(ValueError):
        production_to_capacity(-1.0, 3750.0, 0.69)
    with pytest.raises(ValueError):
        capacity_to_production(-1.0, 3750.0, 0.69)


# ---------------------------------------------------------------------------
# One summation rule: every float total is a left fold from 0.0
# ---------------------------------------------------------------------------

def test_fold_sum_adds_left_to_right():
    # a compensated sum (the built-in ``sum`` from Python 3.12) gives 1.0 here
    assert fold_sum([1e16, 1.0, -1e16]) == 0.0
    assert fold_sum(x for x in (0.1, 0.2, 0.3)) == (0.1 + 0.2) + 0.3
    assert fold_sum([]) == 0.0 and type(fold_sum([])) is float
    assert fold_sum([1e308, 1e308]) == float("inf")


@given(st.lists(st.floats()))
def test_fold_sum_equals_the_ordered_loop(values):
    total = 0.0
    for value in values:
        total += value
    assert fold_sum(values).hex() == total.hex()


# the built-in ``sum`` calls left in the package, each over ints, by module
INT_SUMS = {
    ("cli.py", "sum(1 for r in gap_rows if r['gap_gw'] <= 0)"),
    ("projects.py", "sum(dropped.values())"),
}


def test_no_float_total_uses_the_builtin_sum():
    found = set()
    for path in sorted(Path(h2gap.__file__).parent.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                    and node.func.id == "sum":
                found.add((path.name, ast.get_source_segment(text, node)))
    assert found == INT_SUMS, (
        f"new built-in sum calls {sorted(found - INT_SUMS)}: a float total goes "
        f"through units.fold_sum; stale entries {sorted(INT_SUMS - found)}")
