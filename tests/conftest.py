import importlib.util
from pathlib import Path

import pytest
from hypothesis import settings

from h2gap import ParamSet, demand_supported_additions, fixtures

# property tests replay the same draws on every run, with no deadline
settings.register_profile("h2gap", derandomize=True, deadline=None, database=None)
settings.load_profile("h2gap")

# acceptance tests record one (criterion, passed, detail) entry each; the
# terminal summary prints them as a pass/fail table
ACCEPTANCE_RESULTS: list[tuple[str, bool, str]] = []


@pytest.fixture(scope="session")
def central():
    return ParamSet.builtin("central")


@pytest.fixture(scope="session")
def progressive():
    return ParamSet.builtin("progressive")


@pytest.fixture(scope="session")
def conservative():
    return ParamSet.builtin("conservative")


@pytest.fixture(scope="session")
def pipeline_traj():
    return fixtures.builtin_pipeline()


@pytest.fixture(scope="session")
def extended_traj():
    return fixtures.median_extended_pipeline(2045)


@pytest.fixture(scope="session")
def offset_traj(central, pipeline_traj):
    """Pipeline with the central demand-side offset applied."""
    return pipeline_traj.with_supported(
        demand_supported_additions(central, pipeline_traj))


@pytest.fixture(scope="session")
def snapshots():
    from h2gap import load_snapshot
    return tuple(load_snapshot(fixtures.snapshot_path(v), v)
                 for v in (2021, 2022, 2023))


@pytest.fixture(scope="session")
def oracle():
    """``bench/oracle.py``, the stdlib-only reference ledger the benchmark uses too."""
    path = Path(__file__).resolve().parent.parent / "bench" / "oracle.py"
    if not path.is_file():
        pytest.skip("bench/ is not part of this tree")
    spec = importlib.util.spec_from_file_location("bench_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def record_calls(monkeypatch):
    """``record_calls(owner, name)`` replaces ``owner.name`` for the test with
    a wrapper that calls through and appends each call's positional arguments,
    as a tuple, to the list it returns. A method's tuple starts with ``self``.
    The count gates assert on these lists."""
    def record(owner, name: str) -> list[tuple]:
        calls, real = [], getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        return calls
    return record


@pytest.fixture
def acceptance_check():
    def record(criterion: str, passed: bool, detail: str) -> None:
        ACCEPTANCE_RESULTS.append((criterion, passed, detail))
        assert passed, f"{criterion}: {detail}"
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for criterion, passed, detail in ACCEPTANCE_RESULTS:
        status = "PASS" if passed else "FAIL"
        terminalreporter.write_line(f"[{status}] {criterion}: {detail}")
