"""The benchmark's three workloads: seeded inputs, the timed op and its check.

Each workload has the same shape:

* ``setup()``     -- build the inputs the ops share; may run several times;
* ``prepare(i)``  -- inputs of op ``i`` (untimed), a pure function of the seed and i;
* ``op(x, tracer)`` -- the timed call into h2gap;
* ``check(i, x, out)`` -- untimed; returns ``(ok, digest, report_bytes)``.

The digest identifies the op's output, so a traced op can be compared with
the untraced op of the same index. Calls go through module attributes
(``subsidies.parity_year``, not a bound name) so the tracer's wrappers apply.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import oracle

_NONFINITE = re.compile(rb"(?i)\b(nan|-?inf(inity)?)\b")
SCENARIOS = ("central", "progressive", "conservative")
REPORTS = {
    "track": ("transitions", "fate_rates", "sankey_nodes", "sankey_flows"),
    "ambition": ("ambition_stats", "ambition_gaps"),
    "lcoh": ("lcoh",),
    "gap": ("gap",),
    "subsidies": ("subsidies",),
    "support": ("support",),
    "sweep": ("sweep",),
}
CLI_ENTRY = "import sys; from h2gap.cli import main; sys.exit(main())"


def child_env(root: Path) -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("H2GAP_DATA_DIR", "PYTHONPATH", "PYTHONHOME")}
    env["PYTHONPATH"] = str(root / "src")
    return env


def _read_reports(paths: list[Path]) -> tuple[bool, str, int]:
    """(all present and finite, digest, total bytes) of report files."""
    digest = hashlib.sha256()
    total = 0
    for path in paths:
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return False, "", total
        if _NONFINITE.search(data):
            return False, "", total
        digest.update(path.name.encode() + b"\0" + data)
        total += len(data)
    return True, digest.hexdigest(), total


def _clear(paths: list[Path]) -> None:
    for path in paths:
        path.unlink(missing_ok=True)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        if path.suffix == ".json":
            return json.load(fh)
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float = 1e-9, floor: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + floor


# ---------------------------------------------------------------------------
# cli_bundled: one `h2gap <cmd>` subprocess on the bundled fixtures
# ---------------------------------------------------------------------------

class CliBundled:
    """Analyst use: a fresh ``h2gap`` process per command, bundled fixtures.

    A pool of 28 command lines (each of the 7 commands four times, flags
    drawn from the seed) is cycled, so every command line recurs and its
    reports can be compared byte for byte with its first run.
    """

    name = "cli_bundled"
    block = 28
    per_process = True

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.work = root, seed, work
        self.env = child_env(root)
        self.pool: list[tuple[list[str], Path, list[Path]]] = []
        self.first_digest: dict[int, str] = {}

    def setup(self) -> None:
        subprocess.run([sys.executable, "-c", "import h2gap.cli"], env=self.env,
                       cwd=self.work, check=True, capture_output=True)
        rng = random.Random(self.seed)
        fixtures = self.root / "src" / "h2gap" / "data" / "fixtures"
        snaps = ",".join(str(fixtures / f"snap{v}.csv") for v in (2021, 2022, 2023))
        self.pool = []
        for command in REPORTS:
            # stratified draws: the four variants of a command split the horizon
            # range into quarters and take turns at the discrete flags, so every
            # seed gets a similar mix and only the details vary
            turn = rng.randrange(6)
            for v in range(4):
                def pick(options):
                    return options[(turn + v) % len(options)]
                fmt = pick(("csv", "json"))
                horizon = min(2030 + 18 * v + rng.randrange(18), 2100)
                argv = [command, "--scenario", pick(SCENARIOS),
                        "--carbon-pricing", pick(("on", "off")),
                        "--format", fmt, "--horizon", str(horizon)]
                if command == "track":
                    # the bundled 2021 vintage has no trackable 2023 launch
                    argv += ["--snapshots", snaps, "--target-year", pick(("2021", "2022"))]
                elif command == "ambition":
                    argv += ["--year", pick(("2030", "2040", "2050")),
                             "--exclude-outliers", pick(("true", "false"))]
                elif command == "subsidies" and pick((True, False)):
                    argv += ["--include-post2030"]
                elif command == "support":
                    argv += ["--budget", f"{50.0 + 740.0 * (v + rng.random()):.1f}",
                             "--allocation", pick(("chronological", "uniform"))]
                out = self.work / f"{command}{v}"
                argv += ["--out", str(out)]
                self.pool.append((argv, out,
                                  [out / f"{r}.{fmt}" for r in REPORTS[command]]))
        # interleave commands so consecutive ops differ
        self.pool = [self.pool[4 * c + v] for v in range(4) for c in range(len(REPORTS))]

    def sizes(self) -> dict:
        return {"command_lines": len(self.pool),
                "commands": [p[0][0] for p in self.pool]}

    def prepare(self, i: int):
        k = i % len(self.pool)
        argv, out, reports = self.pool[k]
        _clear(reports)
        return k, argv, reports

    def op(self, x, tracer=None):
        _, argv, _ = x
        if tracer is None:
            cmd = [sys.executable, "-c", CLI_ENTRY, *argv]
        else:
            trace_file = self.work / "trace.json"
            cmd = [sys.executable, str(Path(__file__).with_name("cli_child.py")),
                   str(trace_file), *argv]
        proc = subprocess.run(cmd, env=self.env, cwd=self.work, capture_output=True)
        if tracer is not None and proc.returncode == 0:
            tracer.merge(json.loads(trace_file.read_text()))
        return proc

    def check(self, i, x, proc):
        k, _, reports = x
        ok, digest, nbytes = _read_reports(reports)
        ok = ok and proc.returncode == 0 and not _NONFINITE.search(proc.stdout)
        if ok:
            ok = self.first_digest.setdefault(k, digest) == digest
        return ok, digest, nbytes


# ---------------------------------------------------------------------------
# subsidy_sweep: one in-process sweep cell
# ---------------------------------------------------------------------------

@dataclass
class Cell:
    raw: dict
    carbon: bool
    horizon: int
    budget: float
    brute_force: bool


def _perturb(rng: random.Random, raw: dict, spread: float = 0.05) -> dict:
    """Every number scaled by its own factor in [1 - spread, 1 + spread].

    The payback period stays integral: the cohort ledger pays ceil(payback)
    times, so a fractional value would only test rounding.
    """
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


class SubsidySweep:
    """Library use: LCOH and subsidy schedules over perturbed parameter sets.

    One op is one cell: ``ParamSet.from_dict`` on a perturbed bundled set,
    the median-extended trajectory, the LCOH path 2024..horizon, parity,
    demand-side support, the cumulative schedule on the extended trajectory
    and both budget allocations. Budgets are drawn around each base set's
    full-pipeline cost, so both the saturated and the partial branch run.
    One cell in eight is compared with the brute-force ledger in ``oracle``.
    """

    name = "subsidy_sweep"
    block = 64
    per_process = False

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.work = root, seed, work

    def setup(self) -> None:
        from h2gap import fixtures
        from h2gap.costs import ParamSet

        self.base = {}
        for scenario in SCENARIOS:
            with open(fixtures.params_path(scenario), encoding="utf-8") as fh:
                self.base[scenario] = json.load(fh)
        self.pipe = fixtures.builtin_pipeline()
        self.reqs = fixtures.builtin_requirements()
        self.req_values = {y: [r.capacity_gw for r in self.reqs
                               if r.year == y and not r.outlier] for y in (2040, 2050)}
        self.pipe_adds = {y: self.pipe.addition(y) for y in self.pipe.build_years}
        self.full_cost = {}
        for scenario, raw in self.base.items():
            params = ParamSet.from_dict(raw)
            sup = oracle.supported_additions(params, self.pipe_adds)
            for carbon in (False, True):
                ref = oracle.Reference(params, self.pipe.base_year,
                                       self.pipe.base_capacity_gw,
                                       self.pipe_adds, sup, carbon)
                self.full_cost[scenario, carbon] = ref.full_cost()
        self.anchors_ok = self.anchor_check()

    def sizes(self) -> dict:
        return {"parameter_sets": len(SCENARIOS), "horizons": [2030, 2100],
                "perturbation": 0.05, "brute_force_share": 0.125,
                "pipeline_build_years": len(self.pipe_adds)}

    def prepare(self, i: int) -> Cell:
        rng = random.Random(f"{self.seed}:{i}")
        scenario = rng.choice(SCENARIOS)
        carbon = rng.random() < 0.5
        return Cell(raw=_perturb(rng, self.base[scenario]), carbon=carbon,
                    horizon=rng.randint(2030, 2100),
                    budget=rng.uniform(0.3, 1.5) * self.full_cost[scenario, carbon],
                    brute_force=rng.random() < 0.125)

    def op(self, cell: Cell, tracer=None):
        from h2gap import costs, fixtures, subsidies

        params = costs.ParamSet.from_dict(cell.raw)
        ext = fixtures.median_extended_pipeline(cell.horizon, pipeline=self.pipe,
                                                requirements=self.reqs)
        path = [costs.lcoh(y, ext, params).total
                for y in range(2024, cell.horizon + 1)]
        parity = subsidies.parity_year(ext, params, cell.carbon, cell.horizon)
        supported = subsidies.demand_supported_additions(params, self.pipe)
        schedule = subsidies.cumulative_subsidies(ext.with_supported(supported),
                                                  params, cell.carbon, cell.horizon)
        budgets = [subsidies.capacity_supported_by_budget(
                       cell.budget, params, cell.carbon, self.pipe,
                       allocation=allocation)
                   for allocation in ("chronological", "uniform")]
        return params, ext, path, parity, supported, schedule, budgets

    def check(self, i, cell: Cell, out):
        params, ext, path, parity, supported, schedule, budgets = out
        numbers = [*path, *schedule.annual_busd, *schedule.cumulative_busd]
        for b in budgets:
            numbers += [b.subsidy_supported_gw, b.demand_supported_gw, b.spent_busd,
                        *b.per_year_gw.values()]
        ok = all(math.isfinite(v) for v in numbers)
        digest = hashlib.sha256(repr((numbers, parity, [b.saturated for b in budgets])
                                     ).encode()).hexdigest()
        if ok and cell.brute_force:
            ok = self._brute_force(params, ext, cell, path, parity, supported,
                                   schedule, budgets)
        return ok, digest, 0

    def _brute_force(self, params, ext, cell, path, parity, supported, schedule,
                     budgets) -> bool:
        adds = oracle.extended_additions(self.pipe_adds, self.pipe.base_capacity_gw,
                                         self.req_values, cell.horizon)
        if sorted(adds) != ext.build_years or not all(
                _close(adds[y], ext.addition(y), 1e-12) for y in adds):
            return False
        sup = oracle.supported_additions(params, self.pipe_adds)
        if sorted(sup) != sorted(supported) or not all(
                _close(sup[y], supported[y]) for y in sup):
            return False
        base = (self.pipe.base_year, self.pipe.base_capacity_gw)
        ref = oracle.Reference(params, *base, adds, sup, cell.carbon)
        years = range(2024, cell.horizon + 1)
        if not all(_close(v, ref.lcoh(y)) for y, v in zip(years, path)):
            return False
        # parity: first year whose gap is <= 0, allowing a 1e-9 $/MWh tie
        gaps = {y: ref.lcoh(y) - ref.gas(y) for y in years}
        if parity is None:
            if any(g <= -1e-9 for g in gaps.values()):
                return False
        elif gaps[parity] > 1e-9 or any(gaps[y] <= -1e-9 for y in years if y < parity):
            return False
        ledger = ref.annual(cell.horizon)
        if list(ledger) != list(schedule.years) or not all(
                _close(a, ledger[y], floor=1e-9)
                for y, a in zip(schedule.years, schedule.annual_busd)):
            return False
        pipe_ref = oracle.Reference(params, *base, self.pipe_adds, sup, cell.carbon)
        full = pipe_ref.full_cost()
        net_total = sum(v - sup.get(y, 0.0) for y, v in self.pipe_adds.items())
        for b in budgets:
            if b.saturated != (cell.budget >= full):
                return False
            if not _close(b.demand_supported_gw, sum(sup.values())):
                return False
            if b.saturated:
                ok = _close(b.spent_busd, full) and _close(b.subsidy_supported_gw,
                                                           net_total)
            elif b.allocation == "chronological":
                ok = _close(b.spent_busd, cell.budget)
            else:
                # the uniform factor is bisected to within 0.05 $bn below budget
                ok = cell.budget - 0.1 <= b.spent_busd <= cell.budget * (1 + 1e-9)
            if not ok:
                return False
        return True

    def anchor_check(self) -> bool:
        """The unperturbed central cell reproduces the paper's headline figures."""
        from h2gap import costs, fixtures, subsidies

        central = costs.ParamSet.from_dict(self.base["central"])
        ext = fixtures.median_extended_pipeline(2045, pipeline=self.pipe,
                                                requirements=self.reqs)
        offset = self.pipe.with_supported(
            subsidies.demand_supported_additions(central, self.pipe))
        totals = [subsidies.cumulative_subsidies(offset, central, carbon, 2045).total_busd
                  for carbon in (False, True)]
        return (round(costs.investment_costs(2030, ext, central).total, 1) == 700.9
                and [round(t) for t in totals] == [1672, 956]
                and subsidies.parity_year(ext, central, True, 2045) == 2043)


# ---------------------------------------------------------------------------
# track_large: one in-process `h2gap track` on large synthetic snapshots
# ---------------------------------------------------------------------------

_STATUS_TEXT = {
    "Concept": ("Concept", "concept", "CONCEPT"),
    "FeasibilityStudy": ("Feasibility study", "feasibility  study", "FeasibilityStudy"),
    "FID_Construction": ("FID", "Under construction", "fid/construction"),
    "Operational": ("Operational", "operational"),
    "Decommissioned": ("Decommissioned",),
}
_ADVANCE = {"Concept": "FeasibilityStudy", "FeasibilityStudy": "FID_Construction",
            "FID_Construction": "Operational"}
_DEMO_STATE = {"Operational": "running", "FID_Construction": "future",
               "Decommissioned": "decommissioned"}
_REGIONS = {"DEU": "Europe", "NLD": "Europe", "ESP": "Europe", "AUS": "Oceania",
            "CHL": "Central and South America", "BRA": "Central and South America",
            "USA": "North America", "SAU": "Middle East", "CHN": "China",
            "JPN": "Asia Pacific", "IND": "India", "EGY": "Africa"}
VINTAGES = (2021, 2022, 2023)
HEADER = ["ref_id", "name", "country", "region", "status", "launch_year",
          "capacity_mw_el", "confidential", "demo_state"]


@dataclass
class Project:
    ref: int
    country: str
    status: str
    launch: int
    capacity: float
    confidential: bool
    demo: bool
    drop: str | None   # "status_other", "missing_launch_year", "missing_capacity"


def generate_vintages(seed: int, rows: int) -> list[list[Project]]:
    """Three vintages of one project database, oldest first.

    ``persist`` of the projects carry over to the next vintage (the rest
    disappear and new ones fill up to ``rows``); carried projects advance
    status, revise capacity and move launch years with seeded probabilities.
    About 2% of rows are DEMO, 3% confidential and 4.5% droppable (``Other``
    status, missing launch year or missing capacity).
    """
    rng = random.Random(f"{seed}:snapshots")
    persist = rng.uniform(0.75, 0.9)
    countries = sorted(_REGIONS)
    next_ref = 0

    def new_project() -> Project:
        nonlocal next_ref
        next_ref += 1
        u = rng.random()
        drop = ("status_other" if u < 0.015 else "missing_launch_year" if u < 0.03
                else "missing_capacity" if u < 0.045 else None)
        return Project(ref=next_ref, country=rng.choice(countries),
                       status=rng.choices(("Concept", "FeasibilityStudy",
                                           "FID_Construction", "Operational"),
                                          (0.45, 0.3, 0.15, 0.1))[0],
                       launch=rng.randint(2018, 2035),
                       capacity=round(math.exp(rng.uniform(0.0, 8.0)) + 0.1, 1),
                       confidential=rng.random() < 0.03, demo=rng.random() < 0.02,
                       drop=drop)

    vintages = [[new_project() for _ in range(rows)]]
    for vintage in VINTAGES[1:]:
        carried = []
        for p in vintages[-1]:
            if rng.random() >= persist:
                continue
            q = Project(**vars(p))
            if q.status in _ADVANCE and rng.random() < 0.3:
                q.status = _ADVANCE[q.status]
            elif q.status == "Operational" and rng.random() < 0.02:
                q.status = "Decommissioned"
            if rng.random() < 0.15:
                q.capacity = round(q.capacity * rng.uniform(0.5, 1.6) + 0.1, 1)
            if q.status != "Operational" and (q.launch < vintage or rng.random() < 0.15):
                q.launch += rng.choice((1, 1, 2, 3, -1))
            carried.append(q)
        vintages.append(carried + [new_project() for _ in range(rows - len(carried))])
    return vintages


def _csv_row(p: Project) -> list[str]:
    status = "Other" if p.drop == "status_other" else p.status
    demo_state = ""
    if p.demo and status in _DEMO_STATE:
        demo_state, status = _DEMO_STATE[status], "DEMO"
    text = _STATUS_TEXT.get(status, (status,))
    return [f"GH-{p.ref:07d}", f"Project {p.ref}", p.country, _REGIONS[p.country],
            text[p.ref % len(text)],
            "" if p.drop == "missing_launch_year" else str(p.launch),
            "" if p.drop == "missing_capacity" else repr(p.capacity),
            "true" if p.confidential else "false", demo_state]


class TrackLarge:
    """Project-database use: ``h2gap track`` over three large vintages.

    The snapshot CSVs are written in set-up; each op calls ``h2gap.cli.main``
    in process with a seeded target year and alternating csv/json reports.
    """

    name = "track_large"
    block = 4
    per_process = False
    rows = 12000

    def __init__(self, root: Path, seed: int, work: Path):
        self.root, self.seed, self.work = root, seed, work

    def setup(self) -> None:
        vintages = generate_vintages(self.seed, self.rows)
        self.paths = []
        self.expected_load = []
        for year, projects in zip(VINTAGES, vintages):
            path = self.work / f"snap{year}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(HEADER)
                writer.writerows(_csv_row(p) for p in projects)
            self.paths.append(path)
            dropped = sum(1 for p in projects if p.drop)
            self.expected_load.append((len(projects) - dropped, dropped))
        self.announced = {
            year: sum(p.capacity for p in vintages[0]
                      if p.drop is None and p.launch == year)
            for year in VINTAGES}

    def sizes(self) -> dict:
        return {"rows_per_snapshot": self.rows, "snapshots": len(VINTAGES),
                "snapshot_bytes": [p.stat().st_size for p in self.paths]}

    def prepare(self, i: int):
        fmt = ("csv", "json")[i % 2]
        target = random.Random(f"{self.seed}:{i}").choice(VINTAGES)
        out = self.work / f"out_{fmt}"
        reports = [out / f"{r}.{fmt}" for r in REPORTS["track"]]
        _clear(reports)
        argv = ["track", "--snapshots", ",".join(str(p) for p in self.paths),
                "--target-year", str(target), "--format", fmt, "--out", str(out)]
        return target, argv, reports

    def op(self, x, tracer=None):
        from h2gap import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(x[1])
        return code, buf.getvalue()

    def check(self, i, x, out):
        from h2gap.projects import SankeyData, SankeyFlow, SankeyNode

        target, _, reports = x
        code, stdout = out
        ok, digest, nbytes = _read_reports(reports)
        if not ok or code != 0:
            return False, digest, nbytes
        loaded = [(int(k), int(d)) for k, d in
                  re.findall(r"^loaded .*: (\d+) kept, (\d+) dropped", stdout, re.M)]
        fates = _rows(reports[0])
        booked = sum(float(r["capacity_mw"]) + float(r["dummy_mw"]) for r in fates)
        nodes = _rows(reports[2])
        stages = {int(n["stage"]): n["stage_label"] for n in nodes}
        sankey = SankeyData(
            target_year=target,
            stages=tuple(stages[s] for s in sorted(stages)),
            nodes=tuple(SankeyNode(int(n["stage"]), n["node"], float(n["capacity_gw"]))
                        for n in nodes),
            flows=tuple(SankeyFlow(int(f["stage_from"]), f["node_from"],
                                   int(f["stage_to"]), f["node_to"],
                                   float(f["capacity_gw"]))
                        for f in _rows(reports[3])))
        ok = (loaded == self.expected_load
              and _close(booked, self.announced[target])
              and not sankey.node_balance_errors())
        return ok, digest, nbytes


WORKLOADS = {w.name: w for w in (CliBundled, SubsidySweep, TrackLarge)}


def make(name: str, root: Path, seed: int, work: Path):
    work.mkdir(parents=True, exist_ok=True)
    return WORKLOADS[name](root, seed, work)


def remove_work(work: Path) -> None:
    shutil.rmtree(work, ignore_errors=True)
    with contextlib.suppress(OSError):   # other runs may still use it
        work.parent.rmdir()
