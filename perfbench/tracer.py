"""Timing wrappers around the public functions of each ``logalign`` layer.

The wrappers live here, in the benchmark, so the program under test is not
edited to be measured.  Each target is replaced in every ``logalign.*``
module namespace that binds it, found by identity, because modules import
functions by name (``build_rg`` is bound in several of them).  A target that
no longer exists is skipped and listed.

A wrapped call records a span: name, start, end, parent span and trace
index.  The heuristic's ``h`` runs millions of times, so it is a leaf: its
calls are summed into the enclosing span instead of becoming spans.  The
tracer's own bookkeeping time is charged to the parent span, so self times
(``stats.self_times``) leave it out.  Spans stay in memory and are written
once, at the end.

Run as a script, this module is the traced run of one workload:

    python3 perfbench/tracer.py --model M.pnml --log L.xes --out report.json \
        --spans spans.json [--strategy auto] [--all-optimal]

with the package's ``src`` directory on PYTHONPATH.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Optional

MODULE_PREFIX = "logalign"


class Recorder:
    """In-memory span store shared by all wrappers of one traced run."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []
        self.leaf: dict[str, list] = {}  # name -> [calls, seconds]
        self.trace_of: dict[tuple, int] = {}  # label tuple -> trace index
        self.context: dict = {}  # objects observers compare against

    def charge_overhead(self, seconds: float):
        if self.stack:
            self.spans[self.stack[-1]]["overhead_s"] += seconds


@dataclass(frozen=True)
class Target:
    """One wrapped function or method.

    ``path`` is ``function`` or ``Class.method`` inside ``module``.
    ``trace_arg`` is the position of a trace label sequence among the
    positional arguments, if any.  ``observe(rec, span, args, kwargs,
    result)`` adds counters to the span's info after the call.
    """

    module: str
    path: str
    name: str
    trace_arg: Optional[int] = None
    observe: Optional[Callable] = None
    leaf: bool = False
    inject_stats: bool = False


def _span_wrapper(rec: Recorder, target: Target, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t_in = perf_counter()
        parent = rec.stack[-1] if rec.stack else -1
        trace = rec.spans[parent]["trace"] if parent >= 0 else -1
        if target.trace_arg is not None and len(args) > target.trace_arg:
            trace = rec.trace_of.get(tuple(args[target.trace_arg]), trace)
        span = {"name": target.name, "start": 0.0, "end": 0.0, "parent": parent,
                "trace": trace, "leaf_s": 0.0, "overhead_s": 0.0, "info": {}}
        stats_dict = None
        if target.inject_stats and kwargs.get("stats") is None:
            stats_dict = kwargs["stats"] = {}
        rec.stack.append(len(rec.spans))
        rec.spans.append(span)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            end = perf_counter()
            span["info"]["raised"] = type(exc).__name__
            raise
        else:
            end = perf_counter()
            if stats_dict is not None:
                span["info"]["pops"] = stats_dict.get("pops", 0)
            if target.observe is not None:
                target.observe(rec, span, args, kwargs, result)
            return result
        finally:
            span["start"], span["end"] = start, end
            rec.stack.pop()
            rec.charge_overhead(start - t_in + perf_counter() - end)

    return wrapper


def _leaf_wrapper(rec: Recorder, target: Target, fn):
    slot = rec.leaf.setdefault(target.name, [0, 0.0])

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = perf_counter()
        result = fn(*args, **kwargs)
        end = perf_counter()
        slot[0] += 1
        slot[1] += end - start
        if rec.stack:
            span = rec.spans[rec.stack[-1]]
            span["leaf_s"] += end - start
            if target.observe is not None:
                target.observe(rec, span, args, kwargs, result)
            span["overhead_s"] += perf_counter() - end
        return result

    return wrapper


def install(rec: Recorder, targets, modules=None):
    """Wrap every target in every module of ``modules`` that binds it.

    ``modules`` maps module names to module objects and defaults to the
    ``logalign`` modules loaded in ``sys.modules``.  Returns (undo list,
    {target name: [binding sites]}, [skipped target names]).
    """
    if modules is None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == MODULE_PREFIX
                                           or name.startswith(MODULE_PREFIX + "."))}
    undo = []
    bindings: dict[str, list[str]] = {}
    skipped = []
    for target in targets:
        home = modules.get(target.module)
        owner_name, _, attr = target.path.rpartition(".")
        owner = home
        if home is not None and owner_name:
            owner = getattr(home, owner_name, None)
        original = None if owner is None else vars(owner).get(attr)
        if original is None:
            skipped.append(target.name)
            continue
        make = _leaf_wrapper if target.leaf else _span_wrapper
        wrapper = make(rec, target, original)
        sites = []
        if owner_name:  # a method: the class is shared by every importer
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
            sites.append("%s.%s" % (target.module, target.path))
        else:
            for mod_name in sorted(modules):
                mod = modules[mod_name]
                for key, value in sorted(vars(mod).items(), key=lambda kv: kv[0]):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
                        sites.append("%s.%s" % (mod_name, key))
        bindings[target.name] = sites
    return undo, bindings, skipped


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


# -- observers: counters read off arguments and results ----------------------


def _obs_parse_xes(rec, span, args, kwargs, log):
    span["info"]["events"] = log.total_events


def _obs_decompose(rec, span, args, kwargs, decomposition):
    span["info"]["components"] = len(decomposition.components)


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _obs_build_rg(rec, span, args, kwargs, rg):
    span["info"].update(markings=len(rg.markings), arcs=len(rg.arcs),
                        mono=_arg(args, kwargs, 0, "net") is rec.context.get("net"))


def _obs_precompute(rec, span, args, kwargs, table):
    all_labels = frozenset(a.label for a in table.rg.arcs)
    degenerate = sum(1 for e in table.entries
                     if len(e) == 1 and e[0][0] == () and e[0][1] == all_labels)
    span["info"].update(entries=sum(len(e) for e in table.entries), degenerate=degenerate)


def _obs_build_dafsa(rec, span, args, kwargs, dafsa):
    span["info"].update(states=len(dafsa), arcs=len(dafsa.arcs),
                        events=sum(len(t.labels) for t in _arg(args, kwargs, 0, "log").traces))


def _obs_astar(rec, span, args, kwargs, alignment):
    rg = _arg(args, kwargs, 2, "rg")
    span["info"].update(cost=alignment.cost,
                        component=id(rg) in rec.context.get("component_rgs", ()))


def _obs_h(rec, span, args, kwargs, value):
    # the first estimate of an A* search is the one at its root
    if span["name"] == "align.align_one_optimal" and "root_h" not in span["info"]:
        table, _remaining, mid = args[:3]
        if mid == table.rg.m0:
            span["info"]["root_h"] = value


def _obs_all_optimal(rec, span, args, kwargs, psp):
    span["info"]["psp_arcs"] = len(psp.arcs)


def _obs_seeds(rec, span, args, kwargs, seeds):
    span["info"]["hit"] = bool(seeds)


def _obs_aligner_init(rec, span, args, kwargs, _none):
    aligner = args[0]
    rgs = aligner.component_rgs()
    rec.context["component_rgs"] = {id(rg) for rg in rgs}
    span["info"]["components"] = len(rgs)


def _obs_align_trace(rec, span, args, kwargs, outcome):
    span["info"].update(fallback=outcome.fallback_used, conflict=outcome.conflict)


TARGETS = (
    Target("logalign.logs", "parse_xes", "logs.parse_xes", observe=_obs_parse_xes),
    Target("logalign.logs", "project_log", "logs.project_log"),
    Target("logalign.petri", "parse_pnml", "petri.parse_pnml"),
    Target("logalign.petri", "validate", "petri.validate"),
    Target("logalign.invariants", "decompose", "invariants.decompose", observe=_obs_decompose),
    Target("logalign.reachability", "build_rg", "reachability.build_rg", observe=_obs_build_rg),
    Target("logalign.reachability", "remove_tau", "reachability.remove_tau"),
    Target("logalign.reachability", "remove_tau_extended", "reachability.remove_tau_extended"),
    Target("logalign.reachability", "ReachabilityGraph.min_visible_skips",
           "reachability.min_visible_skips"),
    Target("logalign.reachability", "min_visible_skips_net", "reachability.min_visible_skips_net"),
    Target("logalign.heuristic", "precompute_future_labels", "heuristic.precompute",
           observe=_obs_precompute),
    Target("logalign.heuristic", "FutureLabelTable.h", "heuristic.h", leaf=True, observe=_obs_h),
    Target("logalign.dafsa", "build_dafsa", "dafsa.build_dafsa", observe=_obs_build_dafsa),
    Target("logalign.align", "align_one_optimal", "align.align_one_optimal", trace_arg=0,
           observe=_obs_astar, inject_stats=True),
    Target("logalign.align", "align_all_optimal", "align.align_all_optimal",
           observe=_obs_all_optimal),
    Target("logalign.align", "align_all_optimal_memoized", "align.align_all_optimal_memoized",
           observe=_obs_all_optimal),
    Target("logalign.align", "MemoTables.prefix_seeds", "align.memo_prefix_seeds", trace_arg=1,
           observe=_obs_seeds),
    Target("logalign.align", "MemoTables.suffix_seeds", "align.memo_suffix_seeds", trace_arg=1,
           observe=_obs_seeds),
    Target("logalign.align", "MemoTables.record", "align.memo_record", trace_arg=1),
    Target("logalign.align", "Psp.add_optimal_set", "align.psp_add_optimal_set", trace_arg=1),
    Target("logalign.align", "Psp.add_failure", "align.psp_add_failure", trace_arg=1),
    Target("logalign.align", "Psp.count_optimal", "align.psp_count_optimal", trace_arg=1),
    Target("logalign.recompose", "SComponentAligner.__init__", "recompose.init",
           observe=_obs_aligner_init),
    Target("logalign.recompose", "SComponentAligner.align_trace", "recompose.align_trace",
           trace_arg=1, observe=_obs_align_trace),
    Target("logalign.recompose", "visible_run_realizable", "recompose.visible_run_realizable"),
    Target("logalign.recompose", "hybrid_select", "recompose.hybrid_select"),
    Target("logalign.report", "run_conformance", "report.run_conformance"),
)


def main(argv=None) -> int:
    import argparse
    import json

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--model", required=True)
    parser.add_argument("--log", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", required=True)
    parser.add_argument("--strategy", default="auto")
    parser.add_argument("--all-optimal", action="store_true")
    args = parser.parse_args(argv)

    import logalign  # noqa: F401  (loads every layer module before wrapping)
    from logalign import logs, petri, report

    rec = Recorder()
    undo, bindings, skipped = install(rec, TARGETS)
    try:
        table = logs.LabelTable()
        with open(args.model, "rb") as fh:
            net = petri.parse_pnml(fh.read(), table)
        with open(args.log, "rb") as fh:
            log = logs.parse_xes(fh.read(), table)
        rec.trace_of = {t.labels: i for i, t in enumerate(log.traces)}
        rec.context["net"] = net
        config = report.RunConfig(strategy=args.strategy, all_optimal=args.all_optimal)
        result = report.run_conformance(net, log, config)
    finally:
        uninstall(undo)
    with open(args.out, "w") as fh:
        json.dump(result.report, fh)
    with open(args.spans, "w") as fh:
        json.dump({"spans": rec.spans, "leaf": rec.leaf, "bindings": bindings,
                   "skipped": skipped}, fh)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
