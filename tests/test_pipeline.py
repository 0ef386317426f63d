"""Library-level pipeline behavior: determinism, long inputs, strategy parity."""

import gc
import json
import random
import time
from pathlib import Path

import pytest

from logalign import cli, invariants
from logalign import report as report_module
from logalign.align import future_table
from logalign.errors import SearchBudgetError
from logalign.logs import make_log
from logalign.reachability import build_rg, remove_tau
from logalign.recompose import SComponentAligner
from logalign.report import (EXIT_GLOBAL_TIMEOUT, EXIT_OK, EXIT_STATE_CAP, RunConfig,
                             run_conformance)
from logalign.sampledata import loan_net, loan_pair

from gen import random_log, random_workflow_net
from nets import and_blocks_net, parallel_tasks_net

DATA = Path(__file__).parent / "data"


def canonical(report):
    report = dict(report)
    report.pop("timings_ms")
    return json.dumps(report, sort_keys=True)


def test_repeated_runs_are_deterministic_on_random_logs():
    rng = random.Random(77)
    net = random_workflow_net(12, max_visible=8)
    log = random_log(net, rng, n_traces=120, max_trace_len=10)
    for strategy in ("monolithic", "scomponent"):
        reports = []
        for _ in range(2):
            result = run_conformance(net, log, RunConfig(
                strategy=strategy, emit_alignments=True))
            reports.append(canonical(result.report))
        assert reports[0] == reports[1], strategy


def test_strategy_parity_on_random_logs():
    rng = random.Random(78)
    for seed in (3, 9, 21):
        net = random_workflow_net(seed, max_visible=7)
        log = random_log(net, rng, n_traces=20, max_trace_len=9)
        mono = run_conformance(net, log, RunConfig(strategy="monolithic")).report
        scomp = run_conformance(net, log, RunConfig(strategy="scomponent")).report
        for a, b in zip(mono["traces"], scomp["traces"]):
            assert a["cost"] is not None and b["cost"] is not None
            assert b["cost"] >= a["cost"]


def test_a_fallback_row_is_the_monolithic_row():
    # a conflicting trace gets the monolithic route's search: its cost and
    # its moves, not only a cost no lower
    fallbacks = {"auto": 0, "scomponent": 0}
    for seed in range(24):
        net = random_workflow_net(seed, max_visible=8)
        log = random_log(net, random.Random(seed), n_traces=12, max_trace_len=10)
        mono = run_conformance(net, log, RunConfig(strategy="monolithic",
                                                   emit_alignments=True)).report
        for strategy in fallbacks:
            report = run_conformance(net, log, RunConfig(strategy=strategy,
                                                         emit_alignments=True)).report
            for row, expected in zip(report["traces"], mono["traces"]):
                if row["strategy"] == "s-component+fallback":
                    fallbacks[strategy] += 1
                    assert row["cost"] is not None and row["labels"] == expected["labels"]
                    assert (row["cost"], row["moves"]) == \
                        (expected["cost"], expected["moves"]), (seed, strategy)
    assert min(fallbacks.values()) >= 30, fallbacks


def test_long_trace_alignment_is_tractable():
    import time

    net, log = loan_pair()
    body = tuple(net.table.lookup(x) for x in "CABD") + \
        tuple(net.table.lookup(x) for x in "EGHI") * 24 + \
        (net.table.lookup("E"), net.table.lookup("F"))
    long_log = make_log([body], net.table)
    start = time.perf_counter()
    result = run_conformance(net, long_log, RunConfig(strategy="monolithic"))
    assert time.perf_counter() - start < 10.0
    row = result.report["traces"][0]
    assert row["length"] == 102
    assert row["cost"] == 0  # the loop path replays the whole trace


def hidden_history_net():
    """A, then B||C or a silent skip of both, then D.  The trace A,B,D
    recomposes into a hidden-history conflict and falls back."""
    from logalign.logs import LabelTable
    from logalign.petri import SystemNet

    table = LabelTable()
    return SystemNet.build(
        ["i", "p1", "p2", "p3", "p4", "p5", "p6", "o"],
        [("t_A", "A", ["i"], ["p1"]),
         ("t_split", None, ["p1"], ["p2", "p4"]),
         ("t_B", "B", ["p2"], ["p3"]),
         ("t_C", "C", ["p4"], ["p5"]),
         ("t_join", None, ["p3", "p5"], ["p6"]),
         ("t_skip", None, ["p1"], ["p6"]),
         ("t_D", "D", ["p6"], ["o"])],
        table)


def test_conflicting_trace_with_capped_fallback_fails_alone():
    # the components stay usable under a tight state cap; only the trace
    # whose fallback needs the full graph reports an error
    net = hidden_history_net()
    table = net.table
    good = tuple(table.lookup(x) for x in "ABCD")
    bad = tuple(table.lookup(x) for x in "ABD")  # hidden-history conflict
    log = make_log([good, bad], table)
    result = run_conformance(net, log, RunConfig(strategy="scomponent", state_cap=4))
    assert result.exit_code == 0
    rows = {tuple(r["labels"]): r for r in result.report["traces"]}
    assert rows[("A", "B", "C", "D")]["cost"] == 0
    assert rows[("A", "B", "D")]["cost"] is None
    assert "cap" in rows[("A", "B", "D")]["error"]
    assert result.report["aggregates"]["failed_traces"] == 1


def test_weighted_fitness_is_null_when_no_row_has_a_fitness():
    # the cap stops the loan graph's build, so no skip count exists and no
    # completed row has a fitness: both averages read null, as no row weighs in
    net, log = loan_pair()
    report = run_conformance(net, log, RunConfig(state_cap=5)).report
    rows = report["traces"]
    assert report["min_model_skips"] is None and len(rows) >= 2
    assert all(r["cost"] is not None and r["fitness"] is None for r in rows)
    aggregates = report["aggregates"]
    assert aggregates["completed_traces"] == len(rows)
    assert aggregates["avg_fitness_weighted"] is None
    assert aggregates["avg_fitness_unweighted"] is None


def count_monolithic_builds(monkeypatch, net):
    calls = []

    def counting_build_rg(built, *args, **kwargs):
        if built is net:
            calls.append(kwargs.get("cap"))
        return build_rg(built, *args, **kwargs)

    monkeypatch.setattr(report_module, "build_rg", counting_build_rg)
    return calls


@pytest.mark.parametrize("config", [RunConfig(strategy="scomponents"), RunConfig(timeout_ms=-1),
                                    RunConfig(global_timeout_ms=-1), RunConfig(state_cap=0)])
def test_a_config_the_command_line_refuses_raises_before_any_work(monkeypatch, config):
    net, log = loan_pair()

    def work(*args, **kwargs):
        raise AssertionError("the run started")

    monkeypatch.setattr(report_module, "validate", work)
    with pytest.raises(ValueError):
        run_conformance(net, log, config)


def test_the_least_settings_the_command_line_takes_are_accepted():
    net, log = loan_pair()
    result = run_conformance(net, log, RunConfig(strategy="monolithic", timeout_ms=0,
                                                 global_timeout_ms=0, state_cap=1))
    assert result.exit_code == EXIT_STATE_CAP


def test_one_monolithic_build_per_run(monkeypatch):
    # the hybrid rule, the monolithic route and every fallback share one graph
    net = hidden_history_net()
    table = net.table
    log = make_log([tuple(table.lookup(x) for x in word) for word in ("ABCD", "ABD")],
                   table)
    calls = count_monolithic_builds(monkeypatch, net)
    result = run_conformance(net, log, RunConfig(strategy="scomponent"))
    assert result.report["aggregates"]["fallbacks"] == 1
    assert len(calls) == 1


def test_log_automaton_built_only_for_dot_files(monkeypatch, tmp_path):
    # every route, all-optimal included, aligns one trace at a time: a run
    # builds the log DAFSA only to write dafsa.dot
    from logalign import recompose as recompose_module
    from logalign.dafsa import build_dafsa

    calls = []

    def counting_build_dafsa(log):
        calls.append(log)
        return build_dafsa(log)

    monkeypatch.setattr(report_module, "build_dafsa", counting_build_dafsa)
    monkeypatch.setattr(recompose_module, "build_dafsa", counting_build_dafsa, raising=False)
    net, log = loan_pair()
    for strategy in ("auto", "scomponent", "monolithic"):
        for all_optimal in (False, True):
            config = RunConfig(strategy=strategy, all_optimal=all_optimal)
            assert run_conformance(net, log, config).exit_code == 0
            assert calls == [], (strategy, all_optimal)
    net = hidden_history_net()
    log = make_log([tuple(net.table.lookup(x) for x in word) for word in ("ABCD", "ABD")],
                   net.table)
    result = run_conformance(net, log, RunConfig(strategy="scomponent"))
    assert result.report["aggregates"]["fallbacks"] == 1
    result = run_conformance(net, log, RunConfig(strategy="monolithic", all_optimal=True))
    assert result.exit_code == 0
    assert "build_dafsa" not in result.report["timings_ms"]
    assert calls == []
    config = RunConfig(strategy="monolithic", all_optimal=True, dot_dir=str(tmp_path))
    assert run_conformance(net, log, config).exit_code == 0
    assert calls == [log] and (tmp_path / "dafsa.dot").is_file()


def test_one_monolithic_build_per_capped_run(monkeypatch):
    # a build that hit the state cap is not retried for each conflicting trace
    net = hidden_history_net()
    table = net.table
    a, b, c, d = (table.lookup(x) for x in "ABCD")
    conflicting = [(a, b, d), (a, c, d), (a, b, b, d), (a, c, c, d), (a, b, d, d), (a, c, d, d)]
    log = make_log([(a, b, c, d)] + conflicting, table)
    calls = count_monolithic_builds(monkeypatch, net)
    result = run_conformance(net, log, RunConfig(strategy="scomponent", state_cap=4))
    rows = result.report["traces"]
    assert sum(1 for r in rows if r["conflict"] and "cap" in r["error"]) == len(conflicting)
    assert calls == [4]


def test_expansion_and_tau_removal_timed_apart(monkeypatch):
    # the one monolithic graph is built and reduced once, in two timed phases
    net, log = loan_pair()
    builds = count_monolithic_builds(monkeypatch, net)
    reductions = []

    def counting_remove_tau(rg):
        reductions.append(rg.net is net)
        return remove_tau(rg)

    monkeypatch.setattr(report_module, "remove_tau", counting_remove_tau)
    timings = run_conformance(net, log, RunConfig()).report["timings_ms"]
    assert len(builds) == 1 and reductions == [True]
    assert list(timings)[:3] == ["validate", "build_rg", "remove_tau"]
    # a capped build leaves nothing to reduce, but the phase is still listed
    reductions.clear()
    timings = run_conformance(net, log, RunConfig(state_cap=4)).report["timings_ms"]
    assert reductions == [] and "remove_tau" in timings


def test_auto_strategy_on_parallel_net_end_to_end():
    net = parallel_tasks_net(["T%d" % i for i in range(6)])
    rng = random.Random(5)
    log = random_log(net, rng, n_traces=40, max_trace_len=10)
    result = run_conformance(net, log, RunConfig(strategy="auto"))
    assert result.report["strategy"]["chosen"] == "s-component"
    assert result.report["aggregates"]["failed_traces"] == 0
    mono = run_conformance(net, log, RunConfig(strategy="monolithic"))
    assert mono.report["aggregates"]["raw_fitness_cost"] <= \
        result.report["aggregates"]["raw_fitness_cost"]


def capture_monolithic_graph(monkeypatch, net):
    graphs = []

    def capturing_remove_tau(rg):
        reduced = remove_tau(rg)
        if rg.net is net:
            graphs.append(reduced)
        return reduced

    monkeypatch.setattr(report_module, "remove_tau", capturing_remove_tau)
    return graphs


def rows_built(rg):
    """Whether anything built the graph's successor index or its ``Arc`` rows."""
    return any(name in vars(rg) for name in ("succ", "out", "arcs"))


def arc_rows_built(rg):
    return "out" in vars(rg) or "arcs" in vars(rg)


def test_decomposed_route_never_builds_the_monolithic_rows(monkeypatch):
    # the hybrid rule reads the graph's size and the fitness denominator its
    # skip distance, both from the compact form; no trace falls back
    net = parallel_tasks_net(["T%d" % i for i in range(8)])
    log = random_log(net, random.Random(5), n_traces=40, max_trace_len=10)
    graphs = capture_monolithic_graph(monkeypatch, net)
    report = run_conformance(net, log, RunConfig(strategy="auto")).report
    (rg,) = graphs
    assert report["strategy"]["chosen"] == "s-component"
    assert report["aggregates"]["fallbacks"] == 0 and report["aggregates"]["failed_traces"] == 0
    assert not rows_built(rg)
    built = remove_tau(build_rg(net))
    size = len(built.markings) + len(built.arcs)
    assert report["strategy"]["rg_size"] == size == 2 ** 8 + 8 * 2 ** 7
    assert report["min_model_skips"] == 8 == rg.min_visible_skips()
    assert not rows_built(rg)


def test_the_component_tables_are_built_before_the_first_trace(monkeypatch):
    # every graph the route searches has its heuristic table before the first
    # trace's clock starts; with no conflict the monolithic graph gets
    # neither a table nor a successor index
    from logalign import align as align_module

    net = parallel_tasks_net(["T%d" % i for i in range(8)])
    log = random_log(net, random.Random(5), n_traces=40, max_trace_len=10)
    graphs = capture_monolithic_graph(monkeypatch, net)
    precompute = align_module.precompute_future_labels
    tabled = []

    def recording(rg, *args, **kwargs):
        tabled.append(rg)
        return precompute(rg, *args, **kwargs)

    align_trace = SComponentAligner.align_trace
    at_first_trace = []

    def first_trace_sees_the_tables(self, *args, **kwargs):
        if not at_first_trace:
            at_first_trace.append(({id(rg) for rg in tabled},
                                   {id(rg) for rg in self.component_rgs()}))
        return align_trace(self, *args, **kwargs)

    monkeypatch.setattr(align_module, "precompute_future_labels", recording)
    monkeypatch.setattr(SComponentAligner, "align_trace", first_trace_sees_the_tables)
    report = run_conformance(net, log, RunConfig(strategy="scomponent")).report
    assert report["aggregates"]["fallbacks"] == 0 and report["aggregates"]["failed_traces"] == 0
    ((tables, components),) = at_first_trace
    assert tables == components and len(components) == 8
    (rg,) = graphs
    assert len(tabled) == 8 and not rows_built(rg)


def hidden_history_parallel_net():
    """Eight parallel branches; the first is A, then B||C or a silent skip of
    both, then D, so its trace T1..T7,A,B,D conflicts (a plain parallel net
    has no conflicting trace)."""
    from logalign.logs import LabelTable
    from logalign.petri import SystemNet

    branches = ["s%d" % k for k in range(8)]
    ends = ["e%d" % k for k in range(8)]
    rows = [("t_split", None, ["i"], branches),
            ("t_A", "A", ["s0"], ["p1"]),
            ("t_split0", None, ["p1"], ["p2", "p4"]),
            ("t_B", "B", ["p2"], ["p3"]),
            ("t_C", "C", ["p4"], ["p5"]),
            ("t_join0", None, ["p3", "p5"], ["p6"]),
            ("t_skip", None, ["p1"], ["p6"]),
            ("t_D", "D", ["p6"], ["e0"]),
            ("t_join", None, ends, ["o"])]
    rows += [("t_T%d" % k, "T%d" % k, ["s%d" % k], ["e%d" % k]) for k in range(1, 8)]
    places = ["i"] + branches + ends + ["p%d" % k for k in range(1, 7)] + ["o"]
    return SystemNet.build(places, rows, LabelTable())


def test_a_fallback_builds_the_monolithic_rows_and_keeps_its_cost(monkeypatch):
    net = hidden_history_parallel_net()
    table = net.table
    tasks = ["T%d" % k for k in range(1, 8)]
    fitting = [table.lookup(x) for x in tasks + ["A", "B", "C", "D"]]
    conflicting = [table.lookup(x) for x in tasks + ["A", "B", "D"]]
    graphs = capture_monolithic_graph(monkeypatch, net)
    report = run_conformance(net, make_log([fitting], table), RunConfig()).report
    assert report["strategy"]["chosen"] == "s-component"
    assert report["aggregates"]["fallbacks"] == 0 and not rows_built(graphs[-1])
    log = make_log([fitting, conflicting], table)
    report = run_conformance(net, log, RunConfig()).report
    assert report["strategy"]["chosen"] == "s-component"
    assert report["aggregates"]["fallbacks"] == 1 and rows_built(graphs[-1])
    mono = run_conformance(net, log, RunConfig(strategy="monolithic")).report
    assert [r["cost"] for r in report["traces"]] == [r["cost"] for r in mono["traces"]] == [0, 1]


def record_aligners(monkeypatch):
    """Keep every aligner the pipeline builds."""
    aligners = []

    class Recorded(SComponentAligner):
        def __init__(self, net, deadline=None):
            super().__init__(net, deadline)
            aligners.append(self)

    monkeypatch.setattr(report_module, "SComponentAligner", Recorded)
    return aligners


def test_a_fallback_searches_the_successor_index_without_arc_rows(monkeypatch):
    # the lanes' searches and the fallback's A* with its heuristic precompute
    # read each graph's successor index; none builds the graph's Arc rows
    net = hidden_history_parallel_net()
    conflicting = [net.table.lookup(x) for x in ["T%d" % k for k in range(1, 8)] + list("ABD")]
    monolithic = capture_monolithic_graph(monkeypatch, net)
    aligners = record_aligners(monkeypatch)
    report = run_conformance(net, make_log([conflicting], net.table),
                             RunConfig(strategy="scomponent")).report
    (row,) = report["traces"]
    assert row["strategy"] == "s-component+fallback" and row["cost"] == 1
    (aligner,) = aligners
    graphs = monolithic + aligner.component_rgs()
    assert all("succ" in vars(rg) for rg in graphs)
    assert not any(arc_rows_built(rg) for rg in graphs)


def test_all_optimal_stops_at_the_global_deadline(monkeypatch):
    rng = random.Random(79)
    net = parallel_tasks_net(["T%d" % i for i in range(8)])
    log = random_log(net, rng, n_traces=300, max_trace_len=8)
    # a clock that moves on 1 ms per read, so the 50 ms deadline passes after
    # the same number of reads on any host
    reads = []

    def clock():
        reads.append(None)
        return len(reads) / 1000.0

    monkeypatch.setattr(time, "monotonic", clock)
    result = run_conformance(net, log, RunConfig(
        strategy="monolithic", all_optimal=True, timeout_ms=1, global_timeout_ms=50))
    assert result.exit_code == EXIT_GLOBAL_TIMEOUT
    rows = result.report["traces"]
    assert rows[-1]["error"] == "global timeout"
    assert rows[0]["cost"] is not None
    for row in rows:
        if row["cost"] is None:
            assert row["error"] is not None and row["n_optimal"] == 0
        else:
            assert row["error"] is None and row["n_optimal"] >= 1


def test_global_deadline_crossed_inside_the_only_search(monkeypatch):
    # the deadline passes while the last trace is being searched: that trace
    # fails with the search's own error and the run still reports a timeout
    def search_until_deadline(trace, rg, *, deadline):
        while time.monotonic() <= deadline:
            time.sleep(0.005)
        raise SearchBudgetError("alignment search exceeded its deadline")

    monkeypatch.setattr(report_module, "align_one_optimal", search_until_deadline)
    net, _ = loan_pair()
    log = make_log([tuple(net.table.lookup(x) for x in "BDCEG")], net.table)
    result = run_conformance(net, log, RunConfig(strategy="monolithic",
                                                 global_timeout_ms=300))
    assert result.exit_code == EXIT_GLOBAL_TIMEOUT
    (row,) = result.report["traces"]
    assert row["cost"] is None
    assert row["error"] == "alignment search exceeded its deadline"


def slow_precompute_for(monkeypatch, net=None):
    """Make the heuristic precompute 0.2 s slower: for ``net``'s own graph
    only, or, with no ``net``, for every graph."""
    from logalign import align as align_module

    precompute = align_module.precompute_future_labels

    def slow(rg, *args, **kwargs):
        if net is None or rg.net is net:
            time.sleep(0.2)
        return precompute(rg, *args, **kwargs)

    monkeypatch.setattr(align_module, "precompute_future_labels", slow)


def test_a_trace_timeout_does_not_pay_for_the_heuristic_precompute(monkeypatch):
    net, log = loan_pair()
    slow_precompute_for(monkeypatch, net)
    result = run_conformance(net, log, RunConfig(strategy="monolithic", timeout_ms=100))
    assert result.exit_code == EXIT_OK
    for row in result.report["traces"]:
        assert row["error"] is None and row["cost"] is not None, row
    # the table is built inside the timed align phase
    assert result.report["timings_ms"]["align"] >= 200


def test_the_global_deadline_still_covers_the_heuristic_precompute(monkeypatch):
    net, log = loan_pair()
    slow_precompute_for(monkeypatch, net)
    result = run_conformance(net, log, RunConfig(strategy="monolithic", timeout_ms=100,
                                                 global_timeout_ms=100))
    assert result.exit_code == EXIT_GLOBAL_TIMEOUT
    assert [r["error"] for r in result.report["traces"]] == ["global timeout"] * len(log.traces)


def test_decomposition_stops_at_the_global_deadline(monkeypatch):
    # 729 S-components: the invariant tableau reads the deadline before each
    # of its 30 transition columns, so a deadline passed before it starts
    # stops it before the first column's support check; the run then takes
    # the monolithic route and times out every trace
    drops = []
    drop = invariants._drop_support_dominated

    def counted(rows):
        drops.append(len(rows))
        return drop(rows)

    monkeypatch.setattr(invariants, "_drop_support_dominated", counted)
    net = and_blocks_net(6)
    log = make_log([[t.label for t in net.transitions if t.label]], net.table)
    result = run_conformance(net, log, RunConfig(global_timeout_ms=0))
    assert len(drops) <= 1
    assert result.exit_code == EXIT_GLOBAL_TIMEOUT
    strategy = result.report["strategy"]
    assert strategy["chosen"] == "monolithic"
    assert "deadline" in strategy["reason"], strategy["reason"]
    assert [r["error"] for r in result.report["traces"]] == ["global timeout"]


def precompute_after_the_deadline(monkeypatch):
    """Make every heuristic precompute start once its deadline has passed,
    and record the errors it raises."""
    from logalign import align as align_module

    precompute = align_module.precompute_future_labels
    raised = []

    def late(rg, *args, deadline=None, **kwargs):
        while deadline is not None and time.monotonic() <= deadline:
            time.sleep(0.002)
        try:
            return precompute(rg, *args, deadline=deadline, **kwargs)
        except SearchBudgetError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(align_module, "precompute_future_labels", late)
    return raised


def test_a_precompute_past_the_global_deadline_times_out_every_trace(monkeypatch):
    raised = precompute_after_the_deadline(monkeypatch)
    net, log = loan_pair()
    for all_optimal in (False, True):
        del raised[:]
        result = run_conformance(net, log, RunConfig(strategy="monolithic",
                                                     all_optimal=all_optimal,
                                                     global_timeout_ms=20))
        assert result.exit_code == EXIT_GLOBAL_TIMEOUT
        assert raised == ["heuristic precompute exceeded the global deadline"]
        assert [r["error"] for r in result.report["traces"]] == ["global timeout"] * len(log.traces)
        assert all(r["cost"] is None for r in result.report["traces"])


def test_a_component_precompute_past_the_global_deadline_times_out_every_trace(monkeypatch):
    # the component tables are built before the first trace, as the
    # monolithic route's table is, so no trace starts
    raised = precompute_after_the_deadline(monkeypatch)
    net, log = loan_pair()
    result = run_conformance(net, log, RunConfig(strategy="scomponent", timeout_ms=1000,
                                                 global_timeout_ms=20))
    assert result.exit_code == EXIT_GLOBAL_TIMEOUT
    assert raised == ["heuristic precompute exceeded the global deadline"]
    assert [r["error"] for r in result.report["traces"]] == ["global timeout"] * len(log.traces)
    assert all(r["cost"] is None for r in result.report["traces"])


def test_a_first_fallback_does_not_pay_for_the_heuristic_precompute(monkeypatch):
    net = hidden_history_parallel_net()
    table = net.table
    tasks = ["T%d" % k for k in range(1, 8)]
    conflicting = [table.lookup(x) for x in tasks + ["A", "B", "D"]]
    log = make_log([conflicting], table)
    slow_precompute_for(monkeypatch, net)
    report = run_conformance(net, log, RunConfig(strategy="scomponent", timeout_ms=100)).report
    (row,) = report["traces"]
    assert row["strategy"] == "s-component+fallback"
    assert row["error"] is None and row["cost"] == 1
    # with a global deadline, the fallback's search still stops at it
    report = run_conformance(net, log, RunConfig(strategy="scomponent", timeout_ms=1000,
                                                 global_timeout_ms=100)).report
    (row,) = report["traces"]
    assert row["cost"] is None and "deadline" in row["error"]


def test_a_first_lane_search_does_not_pay_for_its_component_table(monkeypatch):
    net, log = loan_pair()
    slow_precompute_for(monkeypatch)
    result = run_conformance(net, log, RunConfig(strategy="scomponent", timeout_ms=100))
    assert result.exit_code == EXIT_OK
    for row in result.report["traces"]:
        assert row["error"] is None and row["cost"] is not None, row


def collector_state():
    return gc.isenabled(), gc.get_freeze_count()


def test_run_leaves_the_collector_as_it_found_it():
    net, log = loan_pair()
    before = collector_state()
    assert run_conformance(net, log, RunConfig()).exit_code == EXIT_OK
    assert collector_state() == before
    result = run_conformance(net, log, RunConfig(global_timeout_ms=0))
    assert result.exit_code == EXIT_GLOBAL_TIMEOUT
    assert collector_state() == before


def test_align_loop_runs_with_the_collector_off_and_restores_it_when_it_raises(monkeypatch):
    seen = []

    def fail(self, trace, deadline=None):
        seen.append(gc.isenabled())
        raise RuntimeError("aligner failed")

    monkeypatch.setattr(SComponentAligner, "align_trace", fail)
    net, log = loan_pair()
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        run_conformance(net, log, RunConfig(strategy="scomponent"))
    assert seen == [False]
    assert gc.isenabled()


def test_a_collector_the_caller_turned_off_stays_off():
    net, log = loan_pair()
    gc.disable()
    try:
        assert run_conformance(net, log, RunConfig()).exit_code == EXIT_OK
        assert not gc.isenabled()
    finally:
        gc.enable()


def cyclic_garbage_after_a_run(net, log, config):
    """The objects ``gc.collect()`` finds after a run made with the collector
    off."""
    gc.collect()
    gc.disable()
    try:
        run_conformance(net, log, config)
        return gc.collect()
    finally:
        gc.enable()


def test_cyclic_garbage_of_a_run_does_not_grow_with_the_log():
    # a run with the collector off leaves as much for it on 300 traces as on
    # 30: nothing, as a run builds no reference cycles
    for seed in (3, 9, 12, 21):
        net = random_workflow_net(seed, max_visible=8)
        short, long = (random_log(net, random.Random(seed), n_traces=n, max_trace_len=10)
                       for n in (30, 300))
        assert (short.total_traces, long.total_traces) == (30, 300)
        for config in (RunConfig(strategy="monolithic"),
                       RunConfig(strategy="monolithic", all_optimal=True)):
            assert (cyclic_garbage_after_a_run(net, short, config)
                    == cyclic_garbage_after_a_run(net, long, config)), (seed, config)


def test_objects_the_caller_froze_stay_frozen():
    net, log = loan_pair()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        assert run_conformance(net, log, RunConfig()).exit_code == EXIT_OK
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_no_route_leaves_cyclic_garbage():
    net = random_workflow_net(12, max_visible=8)
    log = random_log(net, random.Random(12), n_traces=30, max_trace_len=10)
    fallbacks = run_conformance(net, log, RunConfig(strategy="scomponent")).report
    assert fallbacks["aggregates"]["fallbacks"] >= 1
    for config in (RunConfig(strategy="monolithic"),
                   RunConfig(strategy="monolithic", all_optimal=True),
                   RunConfig(strategy="scomponent"),
                   RunConfig(strategy="scomponent", state_cap=5)):  # fallbacks fail on the cap
        assert cyclic_garbage_after_a_run(net, log, config) == 0, config


def test_a_heuristic_table_refers_to_its_graph_while_the_graph_lives():
    rg = remove_tau(build_rg(loan_net()))
    table = future_table(rg)
    assert table.rg is rg and future_table(rg) is table
    del rg  # no cycle holds the graph, so it goes at once
    assert table.rg is None


def check_argv(tmp_path):
    return ["check", "--log", str(DATA / "loan.xes"), "--model", str(DATA / "loan.pnml"),
            "--out", str(tmp_path / "report.json"), "--csv", str(tmp_path / "report.csv")]


def test_check_reads_and_writes_with_the_collector_off(monkeypatch, tmp_path):
    seen = []
    parse_xes, report_to_csv = cli.parse_xes, cli.report_to_csv

    def reading(*args):
        seen.append(("read", gc.isenabled()))
        return parse_xes(*args)

    def writing(report):
        # the JSON report is written before the CSV
        seen.append(("write", gc.isenabled(), (tmp_path / "report.json").exists()))
        return report_to_csv(report)

    monkeypatch.setattr(cli, "parse_xes", reading)
    monkeypatch.setattr(cli, "report_to_csv", writing)
    assert gc.isenabled()
    assert cli.main(check_argv(tmp_path)) == EXIT_OK
    assert seen == [("read", False), ("write", False, True)]
    assert gc.isenabled()


def test_check_leaves_the_collector_as_it_found_it(tmp_path):
    missing = ["check", "--log", str(tmp_path / "missing.xes"), "--model", str(DATA / "loan.pnml")]
    try:
        for enabled in (True, False):
            (gc.enable if enabled else gc.disable)()
            before = collector_state()
            assert cli.main(check_argv(tmp_path)) == EXIT_OK
            assert collector_state() == before
            assert cli.main(missing) == 2
            assert collector_state() == before
            with pytest.raises(SystemExit) as exc:
                cli.main(["check", "--log", str(DATA / "loan.xes")])  # no --model
            assert exc.value.code == 2
            assert collector_state() == before
    finally:
        gc.enable()
