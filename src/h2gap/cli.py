"""Command-line interface.

``_COMMANDS`` declares each command: its handler, its help line and the names
of the flags it takes, whose argparse specs are in ``_FLAGS``; ``h2gap
<command> --help`` lists them. Bundled fixture data is used for anything not
supplied; ``H2GAP_DATA_DIR`` points all defaults somewhere else.

``track`` takes two or more snapshots, oldest first: the first gives the
target-year cohort, the last judges its fate, and every file is one Sankey
stage.

Exit codes: 0 on success; 2 for usage, configuration and file/schema
problems; 3 for data-validation failures in otherwise well-formed inputs
(bad row values are reported with line numbers) and for a report value that
comes out non-finite (no ``nan``/``inf`` is ever written). A command writes
all of its reports or none: every report is built and checked, and no
target may be a directory, before the output directory is created; each
report is written to a hidden file there, and all are moved into place only
once every one is written. A failure leaves the directory as it was; only a
crash between two of those moves can leave new reports next to old ones.
The stdout summary is printed only after that, and a stdout that is closed
early or full does not turn the written run into an error: it still exits 0.

Output is fully deterministic: rerunning a command yields byte-identical
files, and the CSV and JSON renderings carry identical values. JSON reports
have the bytes of ``json.dumps(rows, indent=2)``. ``main`` runs a command
with the cyclic garbage collector paused and then restores it.

At module level this imports only the stdlib and :mod:`h2gap.units`. Each
command imports its own side of the package when it runs: ``track`` the
project side only, the five cost commands never the project side.
"""

from __future__ import annotations

import argparse
import csv
import errno
import gc
import json
import math
import os
import re
import sys
from contextlib import contextmanager

from .units import (DEFAULT_POLICY_MT, FIRST_SUBSIDY_YEAR, LAST_HORIZON_YEAR,
                    SCENARIO_IDS, SnapshotSchemaError)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3


class ConfigError(Exception):
    """Configuration / input-schema problem (exit code 2)."""


def _finite_float(text: str) -> float:
    """argparse ``type=`` for an amount that must be finite and >= 0 (else exit 2)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number, got {text!r}")
    if value < 0.0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {text!r}")
    return value + 0.0   # -0.0 reads as 0.0


def _end_year(text: str) -> int:
    """argparse ``type=`` for ``--horizon``: a year in 2024-2100."""
    try:
        year = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid year: {text!r}") from None
    if year < FIRST_SUBSIDY_YEAR:
        raise argparse.ArgumentTypeError(f"must be >= {FIRST_SUBSIDY_YEAR}, got {year}")
    if year > LAST_HORIZON_YEAR:
        raise argparse.ArgumentTypeError(f"must be <= {LAST_HORIZON_YEAR}, got {year}")
    return year


_FLAGS = {
    "--snapshots": dict(required=True,
                        help="comma-separated snapshot CSVs, oldest first. The "
                             "first gives the cohort, the last its fate, every "
                             "file a Sankey stage"),
    "--target-year": dict(type=int, required=True),
    "--vintages": dict(help="comma-separated vintage years (default: from file names)"),
    "--year": dict(type=int, default=2030),
    "--exclude-outliers": dict(default="true", choices=["true", "false"]),
    "--snapshot": dict(metavar="FILE", help="project snapshot for the pipeline side "
                                            "(default: bundled 2023 vintage)"),
    "--include-post2030": dict(action="store_true",
                               help="also subsidise build years after 2030 along the "
                                    "scenario-median continuation"),
    "--budget": dict(type=_finite_float, required=True, metavar="BUSD",
                     help="available subsidies in billion US$"),
    "--allocation": dict(default="chronological", choices=["chronological", "uniform"]),
    "--params": dict(metavar="FILE", help="parameter JSON (default: the --scenario file)"),
    "--scenario": dict(default="central", choices=SCENARIO_IDS),
    "--carbon-pricing": dict(default="off", choices=["on", "off"]),
    "--horizon": dict(type=_end_year, default=2045),
    "--format": dict(default="csv", choices=["csv", "json"]),
    "--out": dict(metavar="DIR", default="h2gap_out",
                  help="output directory (default: ./h2gap_out)"),
    "--pipeline": dict(metavar="FILE", help="capacity-addition CSV (default: bundled)"),
    "--scenarios-file": dict(metavar="FILE",
                             help="scenario requirement CSV (default: bundled)"),
    "--policy-mt": dict(type=_finite_float, default=DEFAULT_POLICY_MT,
                        help="demand-side policy volume in Mt H2/yr (default 7)"),
}

# Every command takes these five, also where it ignores them, because the
# benchmark (bench/workloads.py) passes them to every command.
_SHARED = ("--scenario", "--carbon-pricing", "--horizon", "--format", "--out")


# ---------------------------------------------------------------------------
# Output helpers
# ---------------------------------------------------------------------------

_encode_row = json.JSONEncoder(separators=(",\n    ", ": ")).encode


def _json_text(rows: list[dict]) -> str:
    """``json.dumps(rows, indent=2)`` for rows of one or more str/int/float/bool
    columns, through the C encoder: ``indent`` falls back to pure Python."""
    body = "\n  },\n  {\n    ".join(_encode_row(row)[1:-1] for row in rows)
    return "[\n  {\n    " + body + "\n  }\n]" if rows else "[]"


def _write_rows(fh, rows: list[dict], fmt: str) -> None:
    if fmt == "json":
        fh.write(_json_text(rows) + "\n")
    elif rows:
        # every row of a report comes from one dict display, so all rows have
        # the first row's keys in its order
        writer = csv.writer(fh)
        writer.writerow(rows[0].keys())
        writer.writerows(map(dict.values, rows))


def _write_reports(reports: dict[str, list[dict]], out_dir: str, fmt: str) -> None:
    """Write every report of a command, or none.

    Before anything is created, a non-finite float anywhere raises
    ValueError (exit 3) and a target that is a directory raises
    IsADirectoryError (exit 2). Each report then streams into a hidden
    ``.<name>.<fmt>.<pid>.tmp`` in ``out_dir``, created exclusively, and only
    once all of them are written does ``os.replace`` move each into place.
    Any failure before that removes the hidden files, so every failure the
    program sees leaves ``out_dir`` as it was. A crash between two
    ``os.replace`` calls (the process killed, the machine down) can still
    leave new reports next to old ones.
    """
    for name, rows in reports.items():
        for i, row in enumerate(rows, 1):
            for column, value in row.items():
                if isinstance(value, float) and not math.isfinite(value):
                    raise ValueError(f"{name}.{fmt}: column {column!r} is not finite "
                                     f"in data row {i}; report not written")
    paths = [os.path.join(out_dir, f"{name}.{fmt}") for name in reports]
    for path in paths:
        if os.path.isdir(path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
    os.makedirs(out_dir or ".", exist_ok=True)
    hidden = []
    try:
        for name, rows in reports.items():
            tmp = os.path.join(out_dir, f".{name}.{fmt}.{os.getpid()}.tmp")
            # "x" opens with O_CREAT | O_EXCL: never another run's file
            with open(tmp, "x", newline="" if fmt == "csv" else None,
                      encoding="utf-8") as fh:
                hidden.append(tmp)
                _write_rows(fh, rows, fmt)
        for tmp, path in zip(hidden, paths):
            os.replace(tmp, path)
    except BaseException:
        for tmp in hidden:
            if os.path.exists(tmp):
                os.remove(tmp)
        raise


def _require_file(path: str, what: str) -> str:
    """``path`` as given, once it names a file; messages name it as typed."""
    if not os.path.isfile(path):
        raise ConfigError(f"{what} not found: {path}")
    return path


def _load_params(params_file: str | None, scenario: str):
    from . import fixtures
    from .costs import ParamSet

    path = _require_file(params_file or fixtures.params_path(scenario), "parameter file")
    try:
        return ParamSet.from_json(path)
    except ValueError as exc:   # json.JSONDecodeError included
        raise ConfigError(f"bad parameter file {path}: {exc}") from None


def _pipeline_path(args) -> str:
    from . import fixtures

    return _require_file(args.pipeline or fixtures.pipeline_path(), "pipeline file")


def _requirements_path(args) -> str:
    from . import fixtures

    return _require_file(args.scenarios_file or fixtures.requirements_path(),
                         "scenario requirement file")


def _load_pipeline(args):
    from . import fixtures

    return fixtures.load_pipeline(_pipeline_path(args))


def _load_requirements(args):
    from .scenarios import load_requirements

    return load_requirements(_requirements_path(args))


def _median_extended(args, pipe, horizon: int):
    """``pipe`` continued to ``horizon`` along the medians of the requirement
    file. Either file can make the continuation fail, so its error names both."""
    from . import fixtures

    reqs = _load_requirements(args)
    try:
        return fixtures.median_extended_pipeline(horizon, pipeline=pipe,
                                                 requirements=reqs)
    except ValueError as exc:
        raise ValueError(f"cannot continue {_pipeline_path(args)} along the medians "
                         f"of {_requirements_path(args)}: {exc}") from None


@contextmanager
def _naming_pipeline(args):
    """Name the pipeline in an error of spreading ``--policy-mt`` over its
    additions: a huge addition can overflow its share of the policy volume."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"cannot spread {args.policy_mt:g} Mt/yr of demand-side "
                         f"policy over {_pipeline_path(args)}: {exc}") from None


def _vintage(path) -> int | None:
    """The vintage year a snapshot file name carries: its stem's first four digits."""
    m = re.search(r"(\d{4})", os.path.splitext(os.path.basename(path))[0])
    return int(m.group(1)) if m else None


# ---------------------------------------------------------------------------
# Commands: each returns its reports as an ordered ``{name: rows}`` dict and
# its stdout summary lines; ``main`` checks and writes the reports, then
# prints the summary.
# ---------------------------------------------------------------------------

def cmd_track(args):
    # names read from the module at call time, so patching projects.X works
    from .projects import fate_rates, load_snapshot, sankey_flows, track

    paths = [p.strip() for p in args.snapshots.split(",") if p.strip()]
    if len(paths) < 2:
        raise ConfigError("track needs at least two snapshot files")
    if args.vintages:
        try:
            vintages = [int(v) for v in args.vintages.split(",")]
        except ValueError:
            raise ConfigError(f"--vintages must be comma-separated years, "
                              f"got {args.vintages!r}") from None
        if len(vintages) != len(paths):
            raise ConfigError("--vintages must match the number of snapshots")
    else:
        vintages = [_vintage(p) for p in paths]
        if None in vintages:
            raise ConfigError(f"cannot infer vintage year from "
                              f"{paths[vintages.index(None)]!r}; pass --vintages")
    # track() and sankey_flows() raise ValueError for these too, but only
    # after every snapshot is loaded and as a data error (exit 3); here they
    # are flag errors, found before any file is read.
    if any(b < a for a, b in zip(vintages, vintages[1:])):
        raise ConfigError(f"snapshots must be given oldest first, got vintages "
                          f"{vintages}")
    if args.target_year > vintages[-1]:
        raise ConfigError(f"--target-year {args.target_year} is after the last "
                          f"vintage {vintages[-1]}")
    snaps = [load_snapshot(_require_file(p, "snapshot"), v)
             for p, v in zip(paths, vintages)]

    report = track(snaps, args.target_year)
    rates = fate_rates(report)
    sankey = sankey_flows(snaps, args.target_year)

    rate_rows = [{"group": "total", **rates.total._asdict()}]
    rate_rows += [{"group": status.value, **shares._asdict()}
                  for status, shares in rates.by_status.items()]
    summary = [_load_line(path, snap) for path, snap in zip(paths, snaps)]
    summary += [f"\ncohort {args.target_year}: announced "
               f"{report.announced_mw / 1000.0:.3f} GW (vintage "
               f"{report.earlier_vintage}), realised on time "
               f"{report.realized_mw / 1000.0:.3f} GW",
               f"{'group':<20} {'success':>8} {'delayed':>8} {'disappeared':>12}"]
    summary += [f"{row['group']:<20} {row['success']:>8.1%} {row['delayed']:>8.1%} "
                f"{row['disappeared']:>12.1%}" for row in rate_rows]
    return {
        "transitions": [
            {"ref_id": f.ref_id, "name": f.name,
             "status_announced": f.status_announced.value, "fate": f.fate.value,
             "capacity_mw": f.capacity_mw, "dummy_mw": f.dummy_mw,
             "final_status": f.final_status.value if f.final_status else "",
             "final_launch_year": f.final_launch_year if f.final_launch_year else "",
             "operational_late": f.operational_late, "early": f.early}
            for f in report.fates],
        "fate_rates": rate_rows,
        "sankey_nodes": [
            {"stage": n.stage, "stage_label": sankey.stages[n.stage],
             "node": n.label, "capacity_gw": n.capacity_gw} for n in sankey.nodes],
        "sankey_flows": [
            {"stage_from": f.stage_from, "node_from": f.label_from,
             "stage_to": f.stage_to, "node_to": f.label_to,
             "capacity_gw": f.capacity_gw} for f in sankey.flows]}, summary


def _load_line(path, snap) -> str:
    rep = snap.load_report
    reasons = f" {dict(rep.dropped_reasons)}" if rep.dropped else ""
    return f"loaded {path}: {rep.kept} kept, {rep.dropped} dropped{reasons}"


def cmd_ambition(args):
    from . import fixtures
    from .projects import load_snapshot, pipeline_gw
    from .scenarios import ambition_gap, stats

    reqs = _load_requirements(args)
    exclude = args.exclude_outliers == "true"
    year_reqs = [r for r in reqs if r.year == args.year
                 and not (exclude and r.outlier)]
    if not year_reqs:
        raise ConfigError(f"no scenario requirements for {args.year}")
    st = stats(reqs, args.year, exclude_outliers=exclude)
    snap_path = _require_file(args.snapshot or fixtures.snapshot_path(2023), "snapshot")
    snap = load_snapshot(snap_path, _vintage(snap_path) or 0)
    pipe_gw = pipeline_gw(snap, args.year)

    stat_rows = [{"year": st.year, "n": st.n, "min_gw": st.minimum,
                  "q1_gw": st.q1, "median_gw": st.median, "q3_gw": st.q3,
                  "max_gw": st.maximum, "pipeline_gw": pipe_gw,
                  "median_gap_gw": ambition_gap(st.median, pipe_gw)}]
    gap_rows = [{"source": r.source, "scenario_name": r.scenario_name,
                 "requirement_gw": r.capacity_gw,
                 "gap_gw": ambition_gap(r.capacity_gw, pipe_gw)}
                for r in sorted(year_reqs, key=lambda r: (r.capacity_gw, r.source))]
    summary = [
        _load_line(snap_path, snap),
        f"requirements {args.year}: n={st.n} median={st.median:.0f} GW "
        f"IQR {st.q1:.0f}-{st.q3:.0f} GW range {st.minimum:.0f}-{st.maximum:.0f} GW",
        f"pipeline through {args.year}: {pipe_gw:.1f} GW",
        f"median ambition gap: {ambition_gap(st.median, pipe_gw):.1f} GW "
        f"({sum(1 for r in gap_rows if r['gap_gw'] <= 0)} of {st.n} scenarios "
        "already covered)"]
    return {"ambition_stats": stat_rows, "ambition_gaps": gap_rows}, summary


def cmd_lcoh(args):
    from .costs import lcoh

    params = _load_params(args.params, args.scenario)
    traj = _median_extended(args, _load_pipeline(args), args.horizon)
    rows = []
    for year in range(FIRST_SUBSIDY_YEAR, args.horizon + 1):
        b = lcoh(year, traj, params)
        rows.append({"year": year, "electricity": b.electricity,
                     "stack_capital": b.stack_capital,
                     "bop_capital": b.bop_capital,
                     "transport_storage": b.transport_storage,
                     "lcoh": b.total,
                     "investment_total_usd_per_kw":
                         b.investment_stack + b.investment_bop,
                     "efficiency": b.efficiency})
    summary = [f"{'year':<6} {'LCOH':>8} {'elec':>8} {'stack':>8} {'BoP':>8} {'T&S':>6}"]
    summary += [f"{r['year']:<6} {r['lcoh']:>8.1f} {r['electricity']:>8.1f} "
                f"{r['stack_capital']:>8.1f} {r['bop_capital']:>8.1f} "
                f"{r['transport_storage']:>6.1f}" for r in rows]
    return {"lcoh": rows}, summary


def cmd_gap(args):
    from .costs import gas_cost, lcoh

    params = _load_params(args.params, args.scenario)
    carbon = args.carbon_pricing == "on"
    traj = _median_extended(args, _load_pipeline(args), args.horizon)
    rows = []
    for year in range(FIRST_SUBSIDY_YEAR, args.horizon + 1):
        total = lcoh(year, traj, params).total
        gas = gas_cost(year, params, carbon)
        rows.append({"year": year, "lcoh": total, "gas_total": gas,
                     "gap": total - gas})
    # the gaps parity_year would compute: its first year with gap <= 0
    parity = next((r["year"] for r in rows if r["gap"] <= 0.0), None)
    summary = [f"{'year':<6} {'LCOH':>8} {'gas':>8} {'gap':>8}"]
    summary += [f"{r['year']:<6} {r['lcoh']:>8.1f} {r['gas_total']:>8.1f} "
                f"{r['gap']:>8.1f}" for r in rows]
    summary.append(f"parity year ({params.scenario_id}, carbon {args.carbon_pricing}): "
                   f"{parity if parity else 'none through ' + str(args.horizon)}")
    return {"gap": rows}, summary


def cmd_subsidies(args):
    from .subsidies import cumulative_subsidies, demand_supported_additions

    params = _load_params(args.params, args.scenario)
    carbon = args.carbon_pricing == "on"
    pipe = _load_pipeline(args)
    traj = _median_extended(args, pipe, args.horizon) if args.include_post2030 else pipe
    with _naming_pipeline(args):
        supported = demand_supported_additions(params, pipe, args.policy_mt)
        traj = traj.with_supported(supported)
    schedule = cumulative_subsidies(traj, params, carbon, args.horizon)
    peak_year, peak = schedule.peak()
    summary = [f"{'year':<6} {'annual $bn':>12} {'cumulative $bn':>15}"]
    summary += [f"{y:<6} {a:>12.2f} {c:>15.1f}" for y, a, c in
                zip(schedule.years, schedule.annual_busd, schedule.cumulative_busd)]
    summary.append(f"cumulative through {args.horizon}: {schedule.total_busd:.0f} $bn "
                   f"(peak {peak:.1f} $bn in {peak_year})")
    rows = [{"year": y, "annual_busd": a, "cumulative_busd": c,
             "scenario": params.scenario_id, "carbon_pricing": args.carbon_pricing}
            for y, a, c in zip(schedule.years, schedule.annual_busd, schedule.cumulative_busd)]
    return {"subsidies": rows}, summary


def cmd_support(args):
    from .subsidies import capacity_supported_by_budget

    params = _load_params(args.params, args.scenario)
    carbon = args.carbon_pricing == "on"
    pipe = _load_pipeline(args)
    with _naming_pipeline(args):
        result = capacity_supported_by_budget(args.budget, params, carbon, pipe,
                                              policy_mt=args.policy_mt,
                                              allocation=args.allocation)
    rows = [{"budget_busd": result.budget_busd,
             "subsidy_supported_gw": result.subsidy_supported_gw,
             "demand_supported_gw": result.demand_supported_gw,
             "total_supported_gw": result.total_supported_gw,
             "spent_busd": result.spent_busd,
             "saturated": result.saturated,
             "allocation": result.allocation,
             "scenario": params.scenario_id,
             "carbon_pricing": args.carbon_pricing}]
    flag = ""
    if result.saturated:
        flag = (" (budget exceeds full-pipeline requirement)"
                if result.budget_busd > result.spent_busd
                else " (budget covers the full-pipeline requirement)")
    summary = [f"budget {result.budget_busd:.0f} $bn supports "
               f"{result.subsidy_supported_gw:.1f} GW by {pipe.last_year}{flag}",
               f"demand-side policy supports a further "
               f"{result.demand_supported_gw:.1f} GW"]
    return {"support": rows}, summary


def cmd_sweep(args):
    from .subsidies import cumulative_subsidies, demand_supported_additions, parity_year

    pipe = _load_pipeline(args)
    extended = _median_extended(args, pipe, args.horizon)
    rows = []
    for scenario in SCENARIO_IDS:
        params = _load_params(None, scenario)
        with _naming_pipeline(args):
            supported = demand_supported_additions(params, pipe, args.policy_mt)
            traj = pipe.with_supported(supported)
        for carbon in (False, True):
            schedule = cumulative_subsidies(traj, params, carbon, args.horizon)
            peak_year, peak = schedule.peak()
            parity = parity_year(extended, params, carbon, args.horizon)
            rows.append({"scenario": scenario,
                         "carbon_pricing": "on" if carbon else "off",
                         "cumulative_busd": schedule.total_busd,
                         "annual_peak_busd": peak,
                         "peak_year": peak_year,
                         "parity_year": parity if parity else ""})
    summary = [f"{'scenario':<14} {'carbon':<7} {'cum $bn':>9} {'peak $bn':>9} "
               f"{'peak yr':>8} {'parity':>7}"]
    summary += [f"{r['scenario']:<14} {r['carbon_pricing']:<7} "
                f"{r['cumulative_busd']:>9.0f} {r['annual_peak_busd']:>9.1f} "
                f"{r['peak_year']:>8} {str(r['parity_year'] or '-'):>7}" for r in rows]
    return {"sweep": rows}, summary


# name: (handler, help line, flags in usage order)
_COMMANDS = {
    "track": (cmd_track, "track a launch-year cohort across vintages",
              ("--snapshots", "--target-year", "--vintages", *_SHARED)),
    "ambition": (cmd_ambition, "scenario statistics and the ambition gap",
                 ("--year", "--exclude-outliers", "--snapshot", *_SHARED,
                  "--scenarios-file")),
    "lcoh": (cmd_lcoh, "levelised cost of hydrogen by year",
             (*_SHARED, "--params", "--pipeline", "--scenarios-file")),
    "gap": (cmd_gap, "cost gap between hydrogen and natural gas",
            (*_SHARED, "--params", "--pipeline", "--scenarios-file")),
    "subsidies": (cmd_subsidies, "required annual and cumulative subsidies",
                  ("--include-post2030", *_SHARED, "--params", "--pipeline",
                   "--scenarios-file", "--policy-mt")),
    "support": (cmd_support, "capacity supportable by a subsidy budget",
                ("--budget", "--allocation", *_SHARED, "--params", "--pipeline",
                 "--policy-mt")),
    "sweep": (cmd_sweep, "scenario x carbon-pricing summary sweep",
              (*_SHARED, "--pipeline", "--scenarios-file", "--policy-mt")),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``h2gap`` parser with every command as a choice, so its usage, help
    and errors are the same whichever is built; only ``command``'s subparser
    gets its flags."""
    parser = argparse.ArgumentParser(
        prog="h2gap",
        description="Green hydrogen project tracking, LCOH and subsidy gaps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        if name == command:
            for flag in flags:
                p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None) -> int:
    """Run one command with the cyclic GC paused, and restore the caller's
    setting. A run builds acyclic data, which dies by refcount on return, so
    a collection would only rescan the snapshot records it keeps alive."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # the top-level parser has no option that takes a value, so the first
    # token that names a command is the one argparse hands the rest to
    parser = build_parser(next((arg for arg in argv if arg in _COMMANDS), None))
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already; normalize other codes
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        reports, summary = _COMMANDS[args.command][0](args)
        _write_reports(reports, args.out, args.format)
        try:
            # flushed here, so that a reader gone early (``| head``) or a
            # full device (``> /dev/full``) shows up now rather than in the
            # interpreter's flush at exit
            print("\n".join(summary), flush=True)
        except OSError:
            # the reports are written, so the run succeeded; what is left
            # of stdout, the flush at exit included, goes to the null device
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_OK
    except (ConfigError, SnapshotSchemaError, OSError) as exc:
        return _fail(exc, EXIT_USAGE)
    except ValueError as exc:
        return _fail(exc, EXIT_DATA)


def _fail(exc: Exception, code: int) -> int:
    """Print ``exc`` as an error line and return ``code``. Like argparse with
    its usage errors, drop a line that cannot be written (stderr closed or
    full), so that the run still exits with the documented code."""
    try:
        sys.stderr.write(f"error: {exc}\n")
    except (AttributeError, OSError):
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
