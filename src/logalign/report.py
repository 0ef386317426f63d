"""End-to-end conformance run: strategy selection, alignment, report assembly.

The pipeline parses nothing itself; it takes an already built net and log
sharing one label table and produces a machine-readable report:

    parse -> validate -> build graph -> remove tau -> (decompose?)
          -> choose strategy -> align -> report

Every route aligns one trace at a time, so no run builds the log DAFSA;
it is built only for ``dafsa.dot`` when dot files are asked for.

Per-trace fitness is 1 - cost / (|trace| + minModelSkips), clamped to
[0, 1]; minModelSkips is the length of the shortest visible model run, so
the denominator is the cost of the degenerate hide-everything alignment.
The raw fitness cost aggregate is the frequency-weighted total cost.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from typing import NamedTuple, Optional

from .align import OP_NAMES, Alignment, align_one_optimal, all_optimal_alignments, future_table
from .dafsa import build_dafsa, dafsa_to_dot
from .errors import LogAlignError, SearchBudgetError, StateSpaceCapError, TauReductionError
from .logs import TAU, EventLog
from .petri import SystemNet, net_to_dot, validate
from .reachability import (DEFAULT_MARKING_CAP, build_rg, min_visible_skips_net,
                           remove_tau, rg_to_dot)
from .recompose import SComponentAligner, hybrid_select

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_GLOBAL_TIMEOUT = 3
EXIT_STATE_CAP = 4


STRATEGIES = ("auto", "monolithic", "scomponent")


class RunConfig(NamedTuple):
    strategy: str = "auto"  # one of STRATEGIES
    all_optimal: bool = False
    timeout_ms: Optional[int] = None  # per trace
    global_timeout_ms: Optional[int] = None
    state_cap: int = DEFAULT_MARKING_CAP
    emit_alignments: bool = False
    dot_dir: Optional[str] = None


class RunResult(NamedTuple):
    report: dict
    exit_code: int


@contextmanager
def collector_off():
    """Keep the cyclic garbage collector off inside the block, and leave it
    as it was found after it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def moves_to_dicts(net: SystemNet, alignment: Alignment) -> list[dict]:
    out = []
    for m in alignment.moves:
        out.append({
            "op": OP_NAMES[m.op],
            "label": net.table.text(m.label),
            "tau_trail": [net.transitions[t].name for t in m.trail],
        })
    return out


def fitness_of(cost: int, length: int, skips: Optional[int]) -> Optional[float]:
    if skips is None:
        return None
    denom = length + skips
    if denom == 0:
        return 1.0
    return max(0.0, min(1.0, 1.0 - cost / denom))


def run_conformance(net: SystemNet, log: EventLog, config: RunConfig) -> RunResult:
    """Validate, build the graphs, choose a strategy, align every trace and
    assemble the report.

    Raises ``ValueError``, before any work, for a config the command line
    would refuse: an unknown strategy, a negative timeout or a state cap
    below 1.

    The cyclic garbage collector stays off for the whole run and is left as
    the caller had it.  A run builds no reference cycles, so a collection
    during it would walk what the run holds and free nothing.
    """
    if config.strategy not in STRATEGIES:
        raise ValueError("unknown strategy %r, not one of %s" % (config.strategy, STRATEGIES))
    if min(config.timeout_ms or 0, config.global_timeout_ms or 0) < 0 or config.state_cap < 1:
        raise ValueError("a negative timeout or a state cap below 1: %r" % (config,))
    with collector_off():
        timings: dict[str, float] = {}
        t0 = time.perf_counter()
        # searches check their deadlines against time.monotonic()
        global_deadline = None
        if config.global_timeout_ms is not None:
            global_deadline = time.monotonic() + config.global_timeout_ms / 1000.0

        def mark(name, since):
            timings[name] = round((time.perf_counter() - since) * 1000.0, 3)
            return time.perf_counter()

        t = time.perf_counter()
        vreport = validate(net)
        t = mark("validate", t)

        # the monolithic graph, built once: compared by the hybrid rule and
        # giving the fitness denominator from its compact form; its Arc rows
        # are built only when the monolithic route or a fallback searches it
        rg = None
        cap_error = None
        try:
            rg = build_rg(net, cap=config.state_cap)
        except StateSpaceCapError as exc:
            # kept without its traceback, whose frames would hold this one
            cap_error = exc.with_traceback(None)
        t = mark("build_rg", t)
        if rg is not None:
            rg = remove_tau(rg)
        t = mark("remove_tau", t)

        aligner = None
        decomposition_error = None
        if config.strategy in ("auto", "scomponent") and vreport.decomposable:
            try:
                aligner = SComponentAligner(net)
            except LogAlignError as exc:  # decomposition or component reduction failed
                decomposition_error = str(exc)
        elif config.strategy in ("auto", "scomponent"):
            decomposition_error = "net is not decomposable: %s" % "; ".join(vreport.problems)
        t = mark("decompose", t)

        # one decision; a requested strategy overrides only its outcome
        chosen, info = hybrid_select(rg, None if aligner is None else aligner.component_rgs())
        if config.strategy == "monolithic":
            chosen, reason = "monolithic", "requested"
        elif aligner is None:
            reason = decomposition_error
        elif config.strategy == "scomponent":
            chosen, reason = "s-component", "requested"
        else:
            reason = "state-space comparison"
        report_strategy = {"requested": config.strategy, "chosen": chosen, "reason": reason, **info}

        if chosen == "monolithic" and rg is None:
            report = _base_report(net, log, vreport, report_strategy, None, timings, [])
            report["error"] = str(cap_error)
            return RunResult(report, EXIT_STATE_CAP)

        # minimum visible model run, for the fitness denominator
        try:
            skips = rg.min_visible_skips() if rg is not None \
                else min_visible_skips_net(net, cap=config.state_cap)
        except (StateSpaceCapError, TauReductionError):
            skips = None

        t = time.perf_counter()
        rows, timed_out = _align_traces(net, log, rg, cap_error, aligner, chosen, skips, config,
                                        global_deadline)
        mark("align", t)
        timings["total"] = round((time.perf_counter() - t0) * 1000.0, 3)

        if config.dot_dir:
            _write_dots(net, log, rg, aligner, config.dot_dir)

        report = _base_report(net, log, vreport, report_strategy, skips, timings, rows)
        return RunResult(report, EXIT_GLOBAL_TIMEOUT if timed_out else EXIT_OK)


def table_off_the_clock(rg, deadline: Optional[float],
                        global_deadline: Optional[float]) -> Optional[float]:
    """``deadline`` for a search of ``rg``, after building the graph's
    future-label table if it is not built yet: moved on by the time the
    build took, but not past ``global_deadline``, so the one-time build is
    not paid from one trace's own timeout.  The build itself stops at
    ``global_deadline`` (``SearchBudgetError``).  Without a deadline the
    search builds the table itself."""
    if deadline is None or getattr(rg, "_future_table", None) is not None:
        return deadline
    start = time.monotonic()
    future_table(rg, global_deadline)
    deadline += time.monotonic() - start
    return deadline if global_deadline is None else min(deadline, global_deadline)


def _align_traces(net, log, rg, cap_error, aligner, chosen, skips, config, global_deadline):
    """One report row per distinct trace, filled in as the trace is aligned
    in log order, and whether the global deadline cut the run short.  On
    all-optimal runs a row also counts the trace's optima, and its moves are
    the first of them.

    The monolithic route searches the whole model's graph ``rg`` for every
    trace; the S-component route recomposes each trace from its lanes and
    searches ``rg`` only for a trace whose lanes conflict, which fails with
    ``cap_error`` when the state cap stopped the graph's build.

    Each trace's search gets the earlier of its own timeout and the global
    deadline.  Once the global deadline has passed, the remaining traces are
    not attempted and are marked ``"global timeout"``.  The heuristic table
    of every graph the chosen route searches is built before the first
    trace's clock starts, so no trace's own timeout pays for it; the global
    deadline does, and a build that passes it leaves every trace to be
    marked.  The fallback graph's table is built at the first conflict, and
    that trace's deadline moves on by the build time.
    """
    all_optimal = chosen == "monolithic" and config.all_optimal
    search = all_optimal_alignments if all_optimal else align_one_optimal
    if log.traces:
        try:
            for graph in [rg] if chosen == "monolithic" else aligner.component_rgs():
                future_table(graph, global_deadline)
        except SearchBudgetError:
            pass  # past the global deadline, which the loop reads
    rows = []
    timed_out = False
    for idx, trace in enumerate(log.traces):
        labels = trace.labels
        row = {"trace_id": idx, "labels": list(log.texts(trace)), "frequency": trace.frequency,
               "length": len(labels), "cost": None, "fitness": None, "strategy": chosen,
               "conflict": None, "error": None}
        if all_optimal:
            row["n_optimal"] = 0
        rows.append(row)
        now = time.monotonic()
        if global_deadline is not None and now > global_deadline:
            timed_out = True
            row["error"] = "global timeout"
            continue
        deadline = global_deadline
        if config.timeout_ms is not None:
            own = now + config.timeout_ms / 1000.0
            deadline = own if deadline is None else min(own, deadline)
        alignment = None
        if chosen != "monolithic":
            alignment, row["conflict"], row["error"] = aligner.align_trace(labels, deadline)
            if alignment is not None:
                row["cost"] = alignment.cost
            elif row["conflict"] is not None:
                row["strategy"] = "s-component+fallback"
        if chosen == "monolithic" or row["conflict"] is not None:
            # the whole-model search; the stored cap error is reported, not
            # raised, as its traceback would hold this frame
            if rg is None:
                row["error"] = str(cap_error)
            else:
                try:
                    found = search(labels, rg=rg,
                                   deadline=table_off_the_clock(rg, deadline, global_deadline))
                except LogAlignError as exc:
                    row["error"] = str(exc)
                else:
                    row["cost"] = found.cost
                    if all_optimal:
                        row["n_optimal"] = found.n_optimal
                        if config.emit_alignments:
                            alignment = found.alignments(limit=1)[0]
                    else:
                        alignment = found
        if row["cost"] is not None:
            row["fitness"] = fitness_of(row["cost"], len(labels), skips)
        elif global_deadline is not None and time.monotonic() > global_deadline:
            timed_out = True
        if config.emit_alignments and alignment is not None:
            row["moves"] = moves_to_dicts(net, alignment)
    return rows, timed_out


def _base_report(net, log, vreport, strategy, skips, timings, rows):
    completed = [r for r in rows if r["cost"] is not None]
    weighted_cost = sum(r["frequency"] * r["cost"] for r in completed)
    fitted = [r for r in completed if r["fitness"] is not None]
    wsum = sum(r["frequency"] for r in fitted)
    wfit = sum(r["frequency"] * r["fitness"] for r in fitted)
    ufit = [r["fitness"] for r in fitted]
    conflicts: dict[str, int] = {}
    for r in rows:
        if r["conflict"]:
            conflicts[r["conflict"]] = conflicts.get(r["conflict"], 0) + 1
    return {
        "schema_version": SCHEMA_VERSION,
        "model": {
            "places": len(net.places),
            "transitions": len(net.transitions),
            "silent_transitions": sum(1 for t in net.transitions if t.label == TAU),
            "workflow_ok": vreport.workflow_ok,
            "free_choice": vreport.free_choice,
            "uniquely_labelled": vreport.uniquely_labelled,
        },
        "log": {
            "distinct_traces": len(log.traces),
            "total_traces": log.total_traces,
            "total_events": log.total_events,
        },
        "strategy": strategy,
        "min_model_skips": skips,
        "aggregates": {
            "raw_fitness_cost": weighted_cost,
            "avg_fitness_weighted": round(wfit / wsum, 6) if wsum else None,
            "avg_fitness_unweighted": round(sum(ufit) / len(ufit), 6) if ufit else None,
            "completed_traces": len(completed),
            "failed_traces": len(rows) - len(completed),
            "conflicts": conflicts,
            "fallbacks": sum(1 for r in rows if r["strategy"].endswith("fallback")),
        },
        "timings_ms": timings,
        "traces": rows,
    }


def report_to_csv(report: dict) -> str:
    lines = ["trace_id,frequency,cost,fitness,strategy,conflict"]
    for row in report["traces"]:
        lines.append("%s,%s,%s,%s,%s,%s" % (
            row["trace_id"], row["frequency"],
            "" if row["cost"] is None else row["cost"],
            "" if row["fitness"] is None else "%.6f" % row["fitness"],
            row["strategy"], row["conflict"] or ""))
    return "\n".join(lines) + "\n"


def _write_dots(net, log, rg, aligner, dot_dir):
    import os

    os.makedirs(dot_dir, exist_ok=True)

    def put(name, text):
        with open(os.path.join(dot_dir, name), "w") as fh:
            fh.write(text)

    put("net.dot", net_to_dot(net))
    put("dafsa.dot", dafsa_to_dot(build_dafsa(log)))
    if rg is not None:
        put("rg.dot", rg_to_dot(rg))
    if aligner is not None:
        for comp, comp_rg in aligner.components:
            put("component_%d.dot" % comp.index, rg_to_dot(comp_rg))
