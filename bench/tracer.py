"""Span and count wrappers around h2gap's public functions, installed only in traced runs.

A wrapper replaces a function in every loaded ``h2gap`` module namespace that
holds it (callers bind names with ``from .costs import lcoh``), or replaces a
method on its class. Each call records a span on a stack: its duration is
added to the layer's total, the duration minus the spans of its children to
the layer's self time, and one to its call count. Spans are aggregated in
memory per layer name rather than kept one by one, because a single sweep
cell makes thousands of ``TimeAnchoredSeries.at`` calls.

``-X importtime`` parsing for the start-up layer lives here as well.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

_H2GAP_MODULES = ("h2gap", "h2gap.units", "h2gap.costs", "h2gap.scenarios",
                  "h2gap.projects", "h2gap.subsidies", "h2gap.fixtures",
                  "h2gap.cli")
IMPORT_MODULES = ("units", "costs", "scenarios", "projects", "subsidies",
                  "fixtures", "cli")


class LayerStats:
    __slots__ = ("calls", "total_ns", "self_ns", "distinct", "rows", "kept")

    def __init__(self):
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.distinct = 0
        self.rows = 0
        self.kept = 0


def _budget_name(args, kwargs) -> str:
    allocation = args[5] if len(args) > 5 else kwargs.get("allocation", "chronological")
    return "subsidies.budget_" + allocation


def _lcoh_key(tracer, args, kwargs):
    year, traj, params = args[:3]
    # keep the trajectory alive for the op, so its id is not reused meanwhile
    content = tracer.traj_keys.get(id(traj))
    if content is None:
        content = (traj.base_year, traj.base_capacity_gw,
                   tuple((y, traj.addition(y)) for y in traj.build_years))
        tracer.traj_keys[id(traj)] = content
        tracer.keep_alive.append(traj)
    return (id(params), content, int(year))


def _count_rows(stats, snapshot):
    rep = snapshot.load_report
    stats.rows += rep.kept + rep.dropped
    stats.kept += rep.kept


class Tracer:
    """Aggregated spans per layer name; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.stats: dict[str, LayerStats] = defaultdict(LayerStats)
        self.ops = 0
        self._stack: list[list] = []   # [start_ns, child_ns] per open span
        self._keys: dict[str, set] = defaultdict(set)
        self.traj_keys: dict[int, tuple] = {}
        self.keep_alive: list = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _wrap(self, fn, name, name_fn=None, key_fn=None, result_fn=None):
        stack, stats, keys = self._stack, self.stats, self._keys
        clock = time.perf_counter_ns
        tracer = self

        def wrapper(*args, **kwargs):
            layer = name_fn(args, kwargs) if name_fn else name
            if key_fn is not None:
                keys[layer].add(key_fn(tracer, args, kwargs))
            frame = [clock(), 0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                dur = clock() - frame[0]
                st = stats[layer]
                st.calls += 1
                st.total_ns += dur
                st.self_ns += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if result_fn is not None:
                result_fn(st, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def end_op(self) -> None:
        """Close one op: fold its distinct-key sets into the counts."""
        for layer, seen in self._keys.items():
            self.stats[layer].distinct += len(seen)
        self._keys.clear()
        self.traj_keys.clear()
        self.keep_alive.clear()
        self.ops += 1

    # -- patching ----------------------------------------------------------
    def _patch_function(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapper = self._wrap(original, name, **hooks)
        for mod_name in _H2GAP_MODULES:
            mod = sys.modules.get(mod_name)
            if mod is None:
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr, name, **hooks):
        raw = cls.__dict__[attr]
        self._restore.append((cls, attr, raw))
        if isinstance(raw, classmethod):
            setattr(cls, attr, classmethod(self._wrap(raw.__func__, name, **hooks)))
        else:
            setattr(cls, attr, self._wrap(raw, name, **hooks))

    def install(self) -> "Tracer":
        from h2gap import cli, costs, fixtures, projects, scenarios, subsidies

        self._patch_method(costs.TimeAnchoredSeries, "at", "costs.series_at")
        self._patch_method(costs.CapacityTrajectory, "cumulative", "costs.cumulative")
        self._patch_method(costs.ParamSet, "from_json", "fixtures.load_inputs")
        self._patch_function(costs, "investment_costs", "costs.investment_costs")
        self._patch_function(costs, "lcoh", "costs.lcoh", key_fn=_lcoh_key)
        self._patch_function(subsidies, "gas_cost", "subsidies.gas_cost")
        self._patch_function(subsidies, "annual_subsidies", "subsidies.annual_subsidies")
        self._patch_function(subsidies, "cumulative_subsidies",
                             "subsidies.cumulative_subsidies")
        self._patch_function(subsidies, "parity_year", "subsidies.parity_year")
        self._patch_function(subsidies, "capacity_supported_by_budget", None,
                             name_fn=_budget_name)
        self._patch_function(scenarios, "stats", "scenarios.stats")
        self._patch_function(scenarios, "load_requirements", "fixtures.load_inputs")
        self._patch_function(fixtures, "load_pipeline", "fixtures.load_inputs")
        self._patch_function(fixtures, "median_extended_pipeline",
                             "fixtures.median_extended_pipeline")
        self._patch_function(projects, "load_snapshot", "projects.load_snapshot",
                             result_fn=_count_rows)
        self._patch_function(projects, "track", "projects.track")
        self._patch_function(projects, "fate_rates", "projects.fate_rates")
        self._patch_function(projects, "sankey_flows", "projects.sankey_flows")
        self._patch_function(cli, "main", "cli.main")
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    # -- transport between processes ---------------------------------------
    def to_dict(self) -> dict:
        return {"ops": self.ops,
                "stats": {k: [s.calls, s.total_ns, s.self_ns, s.distinct, s.rows, s.kept]
                          for k, s in self.stats.items()}}

    def merge(self, data: dict) -> None:
        """Add another process's spans; the op itself is closed by ``end_op``."""
        for layer, values in data["stats"].items():
            st = self.stats[layer]
            st.calls += values[0]
            st.total_ns += values[1]
            st.self_ns += values[2]
            st.distinct += values[3]
            st.rows += values[4]
            st.kept += values[5]

    # -- per-op layer metrics ----------------------------------------------
    def layer_metrics(self) -> dict[str, float]:
        """Per-op layer metrics; a layer that did no work reads 0."""
        ops = max(self.ops, 1)
        s = self.stats

        def calls(name):
            return s[name].calls / ops if name in s else 0

        def ms(name, attr="total_ns"):
            return getattr(s[name], attr) / 1e6 / ops if name in s else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        lcoh = s.get("costs.lcoh", LayerStats())
        load = s.get("projects.load_snapshot", LayerStats())
        return {
            "costs.lcoh.calls": calls("costs.lcoh"),
            "costs.lcoh.self_ms": ms("costs.lcoh", "self_ns"),
            "costs.lcoh.useful_ratio": ratio(lcoh.distinct, lcoh.calls),
            "costs.investment_costs.calls": calls("costs.investment_costs"),
            "costs.cumulative.calls": calls("costs.cumulative"),
            "costs.series_at.calls": calls("costs.series_at"),
            "subsidies.cumulative_subsidies.ms": ms("subsidies.cumulative_subsidies"),
            "subsidies.parity_year.ms": ms("subsidies.parity_year"),
            "subsidies.budget_chronological.ms": ms("subsidies.budget_chronological"),
            "subsidies.budget_uniform.ms": ms("subsidies.budget_uniform"),
            "subsidies.annual_subsidies.calls": calls("subsidies.annual_subsidies"),
            "subsidies.gas_cost.calls": calls("subsidies.gas_cost"),
            "fixtures.median_extended_pipeline.ms": ms("fixtures.median_extended_pipeline"),
            "fixtures.load_inputs.ms": ms("fixtures.load_inputs"),
            "scenarios.stats.calls": calls("scenarios.stats"),
            "projects.load_snapshot.ms": ms("projects.load_snapshot"),
            "projects.load_snapshot.rows_per_s": ratio(load.rows, load.total_ns / 1e9),
            "projects.load_snapshot.kept_ratio": ratio(load.kept, load.rows),
            "projects.track.ms": ms("projects.track"),
            "projects.fate_rates.ms": ms("projects.fate_rates"),
            "projects.sankey_flows.ms": ms("projects.sankey_flows"),
            "cli.main.ms": ms("cli.main"),
            "cli.self_ms": ms("cli.main", "self_ns"),
        }


# ---------------------------------------------------------------------------
# -X importtime
# ---------------------------------------------------------------------------

def parse_importtime(stderr: str) -> dict[str, float]:
    """Start-up layer metrics (ms) from one ``-X importtime`` listing.

    The listing is post-order: a module's nested imports are printed before
    it, two spaces deeper. ``numpy`` is its cumulative time; an h2gap
    module's time is its own plus that of the stdlib modules it was first to
    import, with nested numpy and h2gap modules left to their own lines.
    """
    pending: dict[int, list] = defaultdict(list)
    roots = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        head, cum_us, name = line.split("|", 2)
        self_us = head.split(":", 1)[1]
        stripped = name.lstrip(" ")
        depth = (len(name) - len(stripped) - 1) // 2
        node = (stripped.strip(), int(self_us), int(cum_us), pending.pop(depth + 1, []))
        pending[depth].append(node)
        if depth == 0:
            roots.append(node)

    def boundary(node_name):
        return node_name == "numpy" or node_name.split(".")[0] == "h2gap"

    def exclusive(node):
        return node[1] + sum(exclusive(c) for c in node[3] if not boundary(c[0]))

    out = {"import.numpy_ms": 0.0, "import.h2gap_ms": 0.0}
    out.update({f"import.h2gap.{m}_ms": 0.0 for m in IMPORT_MODULES})

    def walk(node):
        name = node[0]
        if name == "numpy":
            out["import.numpy_ms"] += node[2] / 1e3
        elif name.split(".")[0] == "h2gap":
            own = exclusive(node) / 1e3
            out["import.h2gap_ms"] += own
            key = f"import.{name}_ms"
            if name != "h2gap" and key in out:
                out[key] += own
        for child in node[3]:
            walk(child)

    for root in roots:
        walk(root)
    return out
