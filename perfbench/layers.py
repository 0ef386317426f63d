"""Per-layer metrics of one traced run, computed from its span dump.

The dump is what ``run.py --trace 1`` writes to ``perfbench/out/``: the
tracer's spans and leaf totals, a summary of the traced report, the import
times and the traced and untraced wall times.  Recompute the table offline
with

    python3 perfbench/layers.py perfbench/out/<workload>-<seed>/spans.json

Times ending in ``_s`` are self times summed over a layer's spans; the
``_ms_p50`` / ``_ms_tail`` latencies are whole-call durations per call, as
nearest-rank percentiles.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Optional

from stats import median, percentile, ratio, self_times, tail_percentile

HERE = os.path.dirname(os.path.abspath(__file__))
CATALOG_PATH = os.path.join(HERE, "catalog.json")
BENCHMARK_PATH = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_catalog() -> dict:
    """Metric definitions and rationale, workload rationale and input shapes."""
    with open(CATALOG_PATH) as fh:
        return json.load(fh)


def load_units(kind: str) -> dict:
    """{metric name: unit} of the ``end_to_end`` or ``per_layer`` metrics
    listed in BENCHMARK.json."""
    with open(BENCHMARK_PATH) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


def report_summary(report: Optional[dict], distinct: int) -> dict:
    """The report fields the per-layer table needs (zeros without a report)."""
    if report is None:
        return {"distinct": distinct, "rg_size": 0, "component_rg_total": 0,
                "mono_aligned": 0, "fallbacks": 0, "conflicts": 0}
    rows = report["traces"]
    strategy = report["strategy"]
    return {
        "distinct": len(rows),
        "rg_size": strategy.get("rg_size") or 0,
        "component_rg_total": strategy.get("component_rg_total") or 0,
        "mono_aligned": sum(1 for r in rows
                            if r["strategy"] in ("monolithic", "s-component+fallback")),
        "fallbacks": report["aggregates"]["fallbacks"],
        "conflicts": sum(report["aggregates"]["conflicts"].values()),
    }


def layer_metrics(dump: dict) -> dict:
    """{metric name: value} for every per-layer metric."""
    spans = dump["spans"]
    own = self_times(spans)
    summary = dump["summary"]
    distinct = summary["distinct"]

    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def idx(*names):
        return [i for n in names for i in by_name.get(n, ())]

    def self_s(*names):
        return sum(own[i] for i in idx(*names))

    def info_sum(name, key):
        return sum(spans[i]["info"].get(key, 0) for i in idx(name))

    def durations_ms(name):
        return [(spans[i]["end"] - spans[i]["start"]) * 1000.0 for i in idx(name)]

    m = {"cli.import_s": median(dump["import_s"])}

    m["logs.parse_xes_s"] = self_s("logs.parse_xes")
    m["logs.events"] = info_sum("logs.parse_xes", "events")

    m["petri.parse_pnml_s"] = self_s("petri.parse_pnml")
    m["petri.validate_s"] = self_s("petri.validate")
    m["petri.validate_calls"] = len(idx("petri.validate"))

    m["invariants.decompose_s"] = self_s("invariants.decompose")
    m["invariants.components"] = info_sum("invariants.decompose", "components")

    builds = idx("reachability.build_rg")
    m["reachability.build_rg_s"] = self_s("reachability.build_rg")
    m["reachability.remove_tau_s"] = self_s("reachability.remove_tau",
                                            "reachability.remove_tau_extended")
    m["reachability.mono_builds"] = sum(1 for i in builds if spans[i]["info"].get("mono"))
    m["reachability.markings_built"] = info_sum("reachability.build_rg", "markings")
    m["reachability.rg_size"] = summary["rg_size"]
    m["reachability.component_rg_total"] = summary["component_rg_total"]
    m["reachability.mono_rg_use_ratio"] = ratio(summary["mono_aligned"], distinct)
    m["reachability.min_visible_skips_calls"] = len(idx("reachability.min_visible_skips",
                                                        "reachability.min_visible_skips_net"))
    m["reachability.min_visible_skips_s"] = self_s("reachability.min_visible_skips",
                                                   "reachability.min_visible_skips_net")

    astar = idx("align.align_one_optimal")
    h_calls, h_s = dump["leaf"].get("heuristic.h", (0, 0.0))
    m["heuristic.precompute_s"] = self_s("heuristic.precompute")
    m["heuristic.entries"] = info_sum("heuristic.precompute", "entries")
    m["heuristic.degenerate_markings"] = info_sum("heuristic.precompute", "degenerate")
    m["heuristic.h_calls"] = h_calls
    m["heuristic.h_s"] = h_s
    m["heuristic.root_ratio"] = ratio(
        sum(spans[i]["info"].get("root_h", 0) for i in astar if "cost" in spans[i]["info"]),
        sum(spans[i]["info"]["cost"] for i in astar if "cost" in spans[i]["info"]))

    m["dafsa.build_s"] = self_s("dafsa.build_dafsa")
    m["dafsa.build_calls"] = len(idx("dafsa.build_dafsa"))
    m["dafsa.states"] = info_sum("dafsa.build_dafsa", "states")
    m["dafsa.arcs"] = info_sum("dafsa.build_dafsa", "arcs")
    m["dafsa.states_per_event"] = ratio(m["dafsa.states"],
                                        info_sum("dafsa.build_dafsa", "events"))

    pct, tail, _ = tail_percentile(durations_ms("align.align_one_optimal"))
    m["align.astar_calls"] = len(astar)
    m["align.astar_s"] = self_s("align.align_one_optimal")
    m["align.astar_pops"] = info_sum("align.align_one_optimal", "pops")
    m["align.astar_ms_p50"] = percentile(durations_ms("align.align_one_optimal"), 50)
    m["align.astar_ms_tail"] = tail
    m["align.astar_ms_tail_pct"] = pct
    m["align.budget_failures"] = (
        sum(1 for i in astar if spans[i]["info"].get("raised") == "SearchBudgetError")
        + len(idx("align.psp_add_failure")))
    m["align.sweep_s"] = self_s("align.align_all_optimal", "align.align_all_optimal_memoized")
    m["align.memo_prefix_hit_ratio"] = ratio(info_sum("align.memo_prefix_seeds", "hit"),
                                             len(idx("align.memo_prefix_seeds")))
    m["align.memo_suffix_hit_ratio"] = ratio(info_sum("align.memo_suffix_seeds", "hit"),
                                             len(idx("align.memo_suffix_seeds")))
    m["align.psp_arcs"] = (info_sum("align.align_all_optimal", "psp_arcs")
                           + info_sum("align.align_all_optimal_memoized", "psp_arcs"))

    traces = idx("recompose.align_trace")
    pct, tail, _ = tail_percentile(durations_ms("recompose.align_trace"))
    lane_calls = sum(1 for i in astar if spans[i]["info"].get("component"))
    components = max([spans[i]["info"].get("components", 0) for i in idx("recompose.init")],
                     default=0)
    m["recompose.init_s"] = self_s("recompose.init")
    m["recompose.align_trace_s"] = self_s("recompose.align_trace")
    m["recompose.traces"] = len(traces)
    m["recompose.trace_ms_p50"] = percentile(durations_ms("recompose.align_trace"), 50)
    m["recompose.trace_ms_tail"] = tail
    m["recompose.trace_ms_tail_pct"] = pct
    m["recompose.realizable_s"] = self_s("recompose.visible_run_realizable")
    m["recompose.lane_cache_hit_ratio"] = (1.0 - ratio(lane_calls, len(traces) * components)
                                           if traces and components else 0.0)
    m["recompose.fallback_ratio"] = ratio(summary["fallbacks"], distinct)
    m["recompose.conflicts"] = summary["conflicts"]

    runs = idx("report.run_conformance")
    m["report.run_s"] = sum(spans[i]["end"] - spans[i]["start"] for i in runs)
    m["report.self_s"] = self_s("report.run_conformance")

    m["trace.overhead_ratio"] = ratio(dump["wall_traced_s"], dump["wall_untraced_s"])
    m["trace.skipped_targets"] = len(dump["skipped"])
    return m


def format_table(metrics: dict, units: dict) -> str:
    width = max(len(k) for k in metrics)
    return "\n".join("  %-*s %14.6g %s" % (width, k, v, units.get(k, ""))
                     for k, v in metrics.items())


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(argv[1]) as fh:
        dump = json.load(fh)
    print(format_table(layer_metrics(dump), load_units("per_layer")))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
