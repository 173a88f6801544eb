"""Electrolyser project announcements: snapshot loading, tracking and fate rates.

A *snapshot* is one vintage of a project-announcement database. Projects carry
a stable reference id across vintages, which makes it possible to follow each
announcement over time and classify its fate (realised on schedule, delayed,
or disappeared), to measure the implementation gap between announced and
realised capacity, and to lay the flows out as a Sankey diagram.

:func:`track` and :func:`sankey_flows` take the same two or more snapshots,
oldest first: the first gives the target-year cohort, the last judges its
fate, and each is one Sankey stage (a middle vintage enters only there).

Snapshot CSV schema (read by :func:`h2gap.units.read_csv`, header required)::

    ref_id,name,country,region,status,launch_year,capacity_mw_el,confidential[,demo_state]

Status strings are matched case-insensitively; ``FID`` and
``Under construction`` both normalize to the merged ``FID/Construction``
category. ``DEMO`` rows additionally need ``demo_state`` (``running``,
``future`` or ``decommissioned``) to be mapped onto an operating status.
Rows without a launch year or capacity, or with an ``Other`` status, are
dropped (counted in the load report), so every kept :class:`ProjectRecord`
has both; unparseable rows fail the load with line-level diagnostics.

The result types (:class:`LoadReport`, :class:`TransitionReport`,
:class:`FateRates`, :class:`SankeyData` and their parts) are
:func:`collections.namedtuple` types, like the cost and scenario records:
immutable, equal by value, and cheap to define, so that the ``track`` and
``ambition`` commands import none of :mod:`dataclasses`, :mod:`inspect` and
:mod:`typing`.
"""

from __future__ import annotations

import math
from collections import Counter, namedtuple
from collections.abc import Container, Iterable, Sequence
from enum import Enum
from operator import itemgetter

# the snapshot errors live in the leaf module, so that the CLI can catch them
# without importing this one
from .units import (SnapshotDataError, SnapshotSchemaError, _parse_bool, fold_sum,
                    read_csv)

__all__ = [
    "Status", "Fate", "ProjectRecord", "Snapshot", "LoadReport",
    "SnapshotSchemaError", "SnapshotDataError",
    "load_snapshot", "track", "fate_rates", "pipeline_gw", "sankey_flows",
    "TransitionReport", "ProjectFate", "FateRates", "FateShares",
    "SankeyData", "SankeyNode", "SankeyFlow",
]


class Status(str, Enum):
    CONCEPT = "Concept"
    FEASIBILITY_STUDY = "FeasibilityStudy"
    FID_CONSTRUCTION = "FID_Construction"
    DEMO = "DEMO"
    OPERATIONAL = "Operational"
    DECOMMISSIONED = "Decommissioned"
    OTHER = "Other"


_STATUS_ALIASES = {
    "concept": Status.CONCEPT,
    "feasibility study": Status.FEASIBILITY_STUDY,
    "feasibilitystudy": Status.FEASIBILITY_STUDY,
    "feasibility_study": Status.FEASIBILITY_STUDY,
    "fid": Status.FID_CONSTRUCTION,
    "under construction": Status.FID_CONSTRUCTION,
    "fid/construction": Status.FID_CONSTRUCTION,
    "fid_construction": Status.FID_CONSTRUCTION,
    "demo": Status.DEMO,
    "operational": Status.OPERATIONAL,
    "decommissioned": Status.DECOMMISSIONED,
    "other": Status.OTHER,
    "other/unknown": Status.OTHER,
}

_DEMO_STATES = {
    "running": Status.OPERATIONAL,
    "future": Status.FID_CONSTRUCTION,
    "decommissioned": Status.DECOMMISSIONED,
}

_REQUIRED_COLUMNS = ("ref_id", "name", "country", "region", "status",
                     "launch_year", "capacity_mw_el", "confidential")


class ProjectRecord(namedtuple("_ProjectRecord", (
        "ref_id", "name", "country", "region", "status", "launch_year",
        "capacity_mw", "confidential"))):
    """One project announcement row as :func:`load_snapshot` keeps it: it
    always has a launch year and a positive, finite capacity in MW of
    electrical input.

    A named tuple because a snapshot load builds one per kept row. Records
    are immutable and hashable; like any tuple they equal a plain tuple with
    the same values. Every way in for a caller goes through the checked
    ``__new__``: a call, ``_make`` (and so ``_replace``) and unpickling.
    :func:`load_snapshot` alone builds records with ``tuple.__new__``, after
    it has applied these same checks to the row.
    ``confidential`` is the row's parsed flag; no computation reads it.
    """
    __slots__ = ()

    def __new__(cls, ref_id: str, name: str, country: str, region: str,
                status: Status, launch_year: int, capacity_mw: float,
                confidential: bool = False):
        if launch_year is None:
            raise ValueError(f"{ref_id}: launch year is required")
        if capacity_mw is None or not 0.0 < capacity_mw < math.inf:
            raise ValueError(f"{ref_id}: capacity must be positive and finite, "
                             f"got {capacity_mw}")
        return tuple.__new__(cls, (ref_id, name, country, region, status,
                                   launch_year, capacity_mw, confidential))

    @classmethod
    def _make(cls, iterable) -> ProjectRecord:
        return cls(*iterable)


LoadReport = namedtuple("LoadReport", ("kept", "dropped", "dropped_reasons"))


class Snapshot:
    """One database vintage. Records are immutable after construction."""

    def __init__(self, vintage_year: int, records: Iterable[ProjectRecord],
                 load_report: LoadReport | None = None):
        self.vintage_year = int(vintage_year)
        self.records = tuple(sorted(records, key=itemgetter(0)))   # ref_id
        self.load_report = load_report
        if len(set(map(itemgetter(0), self.records))) != len(self.records):
            dup = next(a.ref_id for a, b in zip(self.records, self.records[1:])
                       if a.ref_id == b.ref_id)
            raise ValueError(f"duplicate ref_id {dup!r} in snapshot {self.vintage_year}")

    def by_ref(self) -> dict[str, ProjectRecord]:
        return {r.ref_id: r for r in self.records}

    def __len__(self) -> int:
        return len(self.records)

    def __repr__(self) -> str:
        return f"Snapshot({self.vintage_year}, {len(self.records)} records)"


def _parse_status(text: str) -> Status:
    status = _STATUS_ALIASES.get(" ".join(text.lower().split()))
    if status is None:
        raise ValueError(f"unknown status {text.strip()!r}")
    return status


def load_snapshot(path, vintage_year: int) -> Snapshot:
    """Read and filter one snapshot CSV by the schema and rules of this
    module's docstring; the kept/dropped tally is ``snapshot.load_report``.

    Raises :class:`SnapshotSchemaError` for a missing column or non-UTF-8
    text, :class:`SnapshotDataError` for unparseable rows or duplicated reference
    ids, as :func:`h2gap.units.read_csv` reads every input CSV.
    """
    records: list[ProjectRecord] = []
    dropped = Counter()
    seen: set[str] = set()
    # raw text -> parsed value, per load; a value that fails to parse is not
    # stored, so every bad row keeps its own error and line number. `places`
    # gives the kept records of one load one shared str per distinct country
    # and region, rather than a fresh copy per row
    statuses: dict[str, Status] = {}
    years: dict[str, int] = {}      # stripped launch-year text
    flags: dict[str, bool] = {}     # raw confidential text
    places: dict[str, str] = {}     # raw or stripped country/region text
    # what every row reads, bound once per load rather than looked up per row
    new, record, keep, add = tuple.__new__, ProjectRecord, records.append, seen.add
    place_of = places.get
    demo, other, demo_states, inf = Status.DEMO, Status.OTHER, _DEMO_STATES, math.inf
    with read_csv(path, _REQUIRED_COLUMNS) as (rows, index, bad, _):
        fields = itemgetter(*(index[c] for c in _REQUIRED_COLUMNS))
        demo_col = index.get("demo_state")
        for row in rows:
            ref_id, name, country, region, status_text, launch_text, cap_text, \
                conf_text = fields(row)
            try:
                ref_id = ref_id.strip()
                if not ref_id:
                    raise ValueError("empty ref_id")
                status = statuses.get(status_text)
                if status is None:
                    status = statuses[status_text] = _parse_status(status_text)
                launch_text = launch_text.strip()
                if launch_text:
                    launch_year = years.get(launch_text)
                    if launch_year is None:
                        launch_year = years[launch_text] = int(launch_text)
                else:
                    launch_year = None
                cap_text = cap_text.strip()
                if cap_text:
                    capacity = float(cap_text)
                    if not 0.0 < capacity < inf:
                        raise ValueError(
                            f"capacity must be positive, got {capacity}" if capacity <= 0.0
                            else f"capacity must be finite, got {capacity}")
                else:
                    capacity = None
                confidential = flags.get(conf_text)
                if confidential is None:
                    confidential = flags[conf_text] = _parse_bool(conf_text)
                if status is demo:
                    if demo_col is None:
                        raise ValueError("DEMO row requires a demo_state column")
                    state = row[demo_col].strip().lower()
                    if state not in demo_states:
                        raise ValueError(f"DEMO row needs demo_state in "
                                         f"{sorted(demo_states)}, got {state!r}")
                    status = demo_states[state]
            except ValueError as exc:
                bad(str(exc))
                continue
            if status is other:
                dropped["status_other"] += 1
            elif launch_year is None:
                dropped["missing_launch_year"] += 1
            elif capacity is None:
                dropped["missing_capacity"] += 1
            elif ref_id in seen:
                bad(f"duplicate ref_id {ref_id!r}")
            else:
                # the checks above are ProjectRecord.__new__'s, so the record
                # is built without its frame
                add(ref_id)
                country_name = place_of(country)
                if country_name is None:
                    text = country.strip()
                    country_name = places[country] = places.setdefault(text, text)
                region_name = place_of(region)
                if region_name is None:
                    text = region.strip()
                    region_name = places[region] = places.setdefault(text, text)
                keep(new(record, (ref_id, name.strip(), country_name, region_name,
                                  status, launch_year, capacity, confidential)))
    report = LoadReport(kept=len(records), dropped=sum(dropped.values()),
                        dropped_reasons=dict(dropped))
    return Snapshot(vintage_year, records, load_report=report)


def pipeline_gw(snapshot: Snapshot, through_year: int) -> float:
    """Announced capacity (GW) with a launch year up to ``through_year``.

    Decommissioned records are excluded: they are no longer part of the
    expected stock. Capacity is summed per launch year, in the order the
    years first appear, and then across years.
    """
    annual: dict[int, float] = {}
    for rec in snapshot.records:
        if rec.launch_year <= through_year and rec.status is not Status.DECOMMISSIONED:
            annual[rec.launch_year] = annual.get(rec.launch_year, 0.0) \
                + rec.capacity_mw / 1000.0
    return fold_sum(annual.values())


# ---------------------------------------------------------------------------
# Tracking across vintages
# ---------------------------------------------------------------------------

class Fate(str, Enum):
    SUCCESS = "success"
    DELAYED = "delayed"
    DISAPPEARED = "disappeared"


class ProjectFate(namedtuple("_ProjectFate", (
        "ref_id", "name", "status_announced", "fate", "capacity_mw", "dummy_mw",
        "final_status", "final_launch_year", "operational_late", "early"),
        defaults=(0.0, None, None, False, False))):
    """Fate of one tracked project of the target-year cohort.

    ``capacity_mw`` is the capacity credited to the fate (the final vintage's
    value when the project is still present, the announced value when it
    vanished); ``dummy_mw`` is the announced-minus-final difference booked as
    a dummy adjustment so that fates plus dummies reproduce the announced
    total exactly. ``operational_late`` marks a delayed project that is
    operational before the final vintage, ``early`` an operational one with a
    launch year before the target.
    """
    __slots__ = ()


class TransitionReport(namedtuple("_TransitionReport", (
        "target_year", "earlier_vintage", "final_vintage", "fates",
        "announced_mw"))):
    """Fates of the target-year cohort; ``announced_mw`` is the
    earlier-vintage cohort total."""
    __slots__ = ()

    def fate_total_mw(self, fate: Fate) -> float:
        return fold_sum(f.capacity_mw for f in self.fates if f.fate is fate)

    @property
    def dummy_total_mw(self) -> float:
        return fold_sum(f.dummy_mw for f in self.fates)

    @property
    def realized_mw(self) -> float:
        return self.fate_total_mw(Fate.SUCCESS)

    @property
    def implementation_gap_mw(self) -> float:
        """Announced capacity minus capacity realised on schedule, >= 0."""
        return max(0.0, self.announced_mw - self.realized_mw)


def _records_of(snapshot: Snapshot, refs: Container[str]) -> dict[str, ProjectRecord]:
    """``snapshot.by_ref()`` narrowed to ``refs``, in one pass over the vintage."""
    return {r.ref_id: r for r in snapshot.records if r.ref_id in refs}


def _vintages(snapshots: Sequence[Snapshot]) -> list[int]:
    """The vintage years of ``snapshots``, checked for what :func:`track` and
    :func:`sankey_flows` both need: at least two vintages, oldest first."""
    if len(snapshots) < 2:
        raise ValueError(f"need at least two snapshots, got {len(snapshots)}")
    vintages = [s.vintage_year for s in snapshots]
    if any(b < a for a, b in zip(vintages, vintages[1:])):
        raise ValueError(f"snapshot vintages must be in non-decreasing order, got "
                         f"{', '.join(map(str, vintages))}")
    return vintages


def track(snapshots: Sequence[Snapshot], target_year: int) -> TransitionReport:
    """Classify the fate of every project announced for ``target_year``.

    The cohort is taken from the first vintage (launch year equal to the
    target year) and judged against the last one; vintages in between do not
    enter:

    * success      -- present, Operational, launch year still the target year
                      (or moved earlier; flagged ``early``)
    * delayed      -- present with a later launch year, or still listed for
                      the target year without having become operational
    * disappeared  -- absent from the final vintage, or decommissioned

    Capacity changes between the two vintages are reconciled with dummy
    adjustments so announced capacity is conserved.
    """
    _vintages(snapshots)
    earlier, final = snapshots[0], snapshots[-1]
    if target_year > final.vintage_year:
        raise ValueError(f"target year {target_year} is after the final vintage "
                         f"{final.vintage_year}")
    cohort = [r for r in earlier.records if r.launch_year == target_year]
    final_by_ref = _records_of(final, {r.ref_id for r in cohort})
    fates: list[ProjectFate] = []
    for rec in cohort:
        fin = final_by_ref.get(rec.ref_id)
        if fin is None:
            fates.append(ProjectFate(rec.ref_id, rec.name, rec.status,
                                     Fate.DISAPPEARED, rec.capacity_mw))
            continue
        if fin.status is Status.DECOMMISSIONED:
            fates.append(ProjectFate(rec.ref_id, rec.name, rec.status,
                                     Fate.DISAPPEARED, rec.capacity_mw,
                                     final_status=fin.status,
                                     final_launch_year=fin.launch_year))
            continue
        operational = fin.status is Status.OPERATIONAL
        late = fin.launch_year > target_year
        fates.append(ProjectFate(
            rec.ref_id, rec.name, rec.status,
            Fate.SUCCESS if operational and not late else Fate.DELAYED,
            fin.capacity_mw, rec.capacity_mw - fin.capacity_mw,
            final_status=fin.status, final_launch_year=fin.launch_year,
            operational_late=operational and late,
            early=operational and fin.launch_year < target_year))
    return TransitionReport(
        target_year=target_year, earlier_vintage=earlier.vintage_year,
        final_vintage=final.vintage_year, fates=tuple(fates),
        announced_mw=fold_sum(r.capacity_mw for r in cohort))


FateShares = namedtuple("FateShares", ("success", "delayed", "disappeared"))
FateRates = namedtuple("FateRates", ("target_year", "total", "by_status"))


def _shares(fates: Sequence[ProjectFate]) -> FateShares:
    total = fold_sum(f.capacity_mw for f in fates)
    if total <= 0.0:
        raise ValueError("no announced capacity to compute fate shares")
    if not math.isfinite(total):
        raise ValueError("announced capacity overflows when summed; "
                         "fate shares are undefined")
    by_fate = {fate: fold_sum(f.capacity_mw for f in fates if f.fate is fate)
               for fate in Fate}
    return FateShares(success=by_fate[Fate.SUCCESS] / total,
                      delayed=by_fate[Fate.DELAYED] / total,
                      disappeared=by_fate[Fate.DISAPPEARED] / total)


def fate_rates(report: TransitionReport) -> FateRates:
    """Capacity-weighted success/delay/disappearance shares, in total and by
    the status each project had in the earlier vintage.

    Dummy adjustments are excluded from the denominators.
    """
    if not report.fates:
        raise ValueError(f"vintage {report.earlier_vintage} lists no project with "
                         f"launch year {report.target_year}")
    statuses = sorted({f.status_announced for f in report.fates}, key=lambda s: s.value)
    by_status = {status: _shares([f for f in report.fates if f.status_announced is status])
                 for status in statuses}
    return FateRates(target_year=report.target_year, total=_shares(report.fates),
                     by_status=by_status)


# ---------------------------------------------------------------------------
# Sankey flows
# ---------------------------------------------------------------------------

ENTERING = "new_or_delayed_in"
INCREASED = "capacity_increased"
REDUCED = "capacity_reduced"
DISAPPEARED = "disappeared"
DELAYED_OUT = "delayed_out"
MOVED_EARLIER = "moved_earlier"
REALIZED = "realized"
NOT_REALIZED = "not_realized"

# each status's node label, read once per record rather than through the
# enum's ``value`` descriptor
_LABEL = {status: status.value for status in Status}

_BOOKKEEPING = {ENTERING, INCREASED, REDUCED, DISAPPEARED, DELAYED_OUT,
                MOVED_EARLIER, REALIZED, NOT_REALIZED}


SankeyNode = namedtuple("SankeyNode", ("stage", "label", "capacity_gw"))
SankeyFlow = namedtuple("SankeyFlow", (
    "stage_from", "label_from", "stage_to", "label_to", "capacity_gw"))


class SankeyData(namedtuple("_SankeyData", (
        "target_year", "stages", "nodes", "flows"))):
    """Sankey nodes and flows of one cohort; ``stages`` has one label per
    vintage plus ``"outcome"``."""
    __slots__ = ()

    def stage_total_gw(self, stage: int) -> float:
        """Capacity of the target-year cohort at one stage (status nodes only)."""
        return fold_sum(n.capacity_gw for n in self.nodes
                        if n.stage == stage and n.label not in _BOOKKEEPING)

    def node_balance_errors(self, tol_gw: float = 1e-9) -> list[str]:
        """Internal status nodes whose inflow and outflow disagree."""
        inflow: dict[tuple[int, str], float] = {}
        outflow: dict[tuple[int, str], float] = {}
        for f in self.flows:
            outflow[(f.stage_from, f.label_from)] = \
                outflow.get((f.stage_from, f.label_from), 0.0) + f.capacity_gw
            inflow[(f.stage_to, f.label_to)] = \
                inflow.get((f.stage_to, f.label_to), 0.0) + f.capacity_gw
        bad = []
        last_stage = len(self.stages) - 1
        for node in self.nodes:
            if node.label in _BOOKKEEPING or not 0 < node.stage < last_stage:
                continue
            key = (node.stage, node.label)
            if abs(inflow.get(key, 0.0) - outflow.get(key, 0.0)) > tol_gw:
                bad.append(f"stage {node.stage} {node.label}: in "
                           f"{inflow.get(key, 0.0)} != out {outflow.get(key, 0.0)}")
        return bad


def sankey_flows(snapshots: Sequence[Snapshot], target_year: int) -> SankeyData:
    """Cohort development across vintages as Sankey nodes and flows (GW).

    One stage per snapshot plus a final outcome stage (realized vs not).
    Projects joining the cohort in a later vintage enter through
    ``new_or_delayed_in`` source nodes; capacity revisions between vintages
    are booked against ``capacity_increased`` / ``capacity_reduced`` nodes so
    that every internal status node balances exactly.
    """
    vintages = _vintages(snapshots)
    cohorts = [{r.ref_id: r for r in snap.records if r.launch_year == target_year}
               for snap in snapshots]
    label = _LABEL
    flow_acc: dict[tuple[int, str, int, str], float] = {}

    def add_flow(stage_from: int, label_from: str, stage_to: int, label_to: str,
                 mw: float) -> None:
        key = (stage_from, label_from, stage_to, label_to)
        flow_acc[key] = flow_acc.get(key, 0.0) + mw / 1000.0

    n = len(snapshots)
    for i in range(n - 1):
        cur, nxt = cohorts[i], cohorts[i + 1]
        # where the refs that leave the cohort went in the next vintage
        moved = _records_of(snapshots[i + 1], cur.keys() - nxt.keys())
        for ref in sorted(cur.keys() | nxt.keys()):
            rec, fin = cur.get(ref), nxt.get(ref)
            if rec is None:
                add_flow(i, ENTERING, i + 1, label[fin.status], fin.capacity_mw)
            elif fin is None:
                out = moved.get(ref)
                if out is None:
                    to = DISAPPEARED
                else:
                    to = DELAYED_OUT if out.launch_year > target_year else MOVED_EARLIER
                add_flow(i, label[rec.status], i + 1, to, rec.capacity_mw)
            else:
                c0, c1 = rec.capacity_mw, fin.capacity_mw
                add_flow(i, label[rec.status], i + 1, label[fin.status], min(c0, c1))
                if c0 > c1:
                    add_flow(i, label[rec.status], i + 1, REDUCED, c0 - c1)
                elif c1 > c0:
                    add_flow(i, INCREASED, i + 1, label[fin.status], c1 - c0)
    # outcome stage: realised on schedule vs still open, in ref order as the
    # snapshot keeps its records
    for rec in cohorts[-1].values():
        add_flow(n - 1, label[rec.status], n,
                 REALIZED if rec.status is Status.OPERATIONAL else NOT_REALIZED,
                 rec.capacity_mw)

    nodes: dict[tuple[int, str], float] = {}
    for i, members in enumerate(cohorts):
        for rec in members.values():
            key = (i, label[rec.status])
            nodes[key] = nodes.get(key, 0.0) + rec.capacity_mw / 1000.0
    for (sf, lf, st, lt), gw in flow_acc.items():
        if lf in _BOOKKEEPING:
            nodes[(sf, lf)] = nodes.get((sf, lf), 0.0) + gw
        if lt in _BOOKKEEPING:
            nodes[(st, lt)] = nodes.get((st, lt), 0.0) + gw

    stages = tuple(str(v) for v in vintages) + ("outcome",)
    node_list = tuple(SankeyNode(stage, label, gw)
                      for (stage, label), gw in sorted(nodes.items()))
    flow_list = tuple(SankeyFlow(sf, lf, st, lt, gw)
                      for (sf, lf, st, lt), gw in sorted(flow_acc.items()))
    return SankeyData(target_year=target_year, stages=stages,
                      nodes=node_list, flows=flow_list)
