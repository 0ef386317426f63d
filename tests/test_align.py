import random

from logalign.align import (OP_LHIDE, OP_MATCH, OP_RHIDE, MemoTables, align_all_optimal,
                            align_one_optimal, alignment_cost, is_proper, Move)
from logalign.dafsa import build_dafsa
from logalign.logs import make_log
from logalign.oracle import brute_force_optimal_cost
from logalign.reachability import build_rg, remove_tau
from logalign.sampledata import loan_pair

from gen import random_log, random_workflow_net
from nets import parallel_merge_net


def loan_setup():
    net, log = loan_pair()
    rg = remove_tau(build_rg(net))
    dafsa = build_dafsa(log)
    return net, log, rg, dafsa


def moves_as_text(net, alignment):
    out = []
    for m in alignment.moves:
        op = {OP_MATCH: "m", OP_LHIDE: "l", OP_RHIDE: "r"}[m.op]
        out.append("%s(%s)" % (op, net.table.text(m.label)))
    return out


def ids(net, word):
    return tuple(net.table.lookup(x) for x in word)


def test_alignment_cost_function():
    mk = lambda op, label: Move(op, label, (), None, None, None, None)
    assert alignment_cost([mk(OP_MATCH, 1)] * 6) == 0
    assert alignment_cost([mk(OP_MATCH, 1), mk(OP_RHIDE, 2)]) == 1
    assert alignment_cost([mk(OP_RHIDE, 1), mk(OP_RHIDE, 2), mk(OP_MATCH, 3),
                           mk(OP_LHIDE, 1), mk(OP_LHIDE, 2)]) == 4
    # silent hides are free
    assert alignment_cost([mk(OP_RHIDE, 0)]) == 0


def test_one_optimal_running_example_selected_alignment():
    net, log, rg, dafsa = loan_setup()
    alignment = align_one_optimal(ids(net, "BDCEG"), dafsa, rg)
    assert alignment.cost == 1
    assert moves_as_text(net, alignment) == ["m(B)", "m(D)", "m(C)", "r(A)", "m(E)", "m(G)"]
    assert is_proper(alignment, ids(net, "BDCEG"), rg)


def test_one_optimal_is_deterministic_across_runs():
    outputs = set()
    for _ in range(10):
        net, log, rg, dafsa = loan_setup()
        alignment = align_one_optimal(ids(net, "BDCEG"), dafsa, rg)
        outputs.add(tuple(moves_as_text(net, alignment)))
    assert len(outputs) == 1


def test_one_optimal_second_running_trace():
    net, log, rg, dafsa = loan_setup()
    alignment = align_one_optimal(ids(net, "BDAEFG"), dafsa, rg)
    assert moves_as_text(net, alignment) == \
        ["m(B)", "m(D)", "m(A)", "r(C)", "m(E)", "m(F)", "l(G)"]
    assert alignment.cost == 2


def test_one_optimal_empty_trace_all_rhide():
    net = parallel_merge_net()
    rg = remove_tau(build_rg(net))
    log = make_log([()], net.table)
    dafsa = build_dafsa(log)
    alignment = align_one_optimal((), dafsa, rg)
    assert all(m.op == OP_RHIDE for m in alignment.moves)
    assert alignment.cost == rg.min_visible_skips() == 3
    assert is_proper(alignment, (), rg)


def test_all_optimal_running_example_exactly_four():
    net, log, rg, dafsa = loan_setup()
    psp = align_all_optimal(log, dafsa, rg)
    trace = ids(net, "BDCEG")
    assert psp.cost(trace) == 1
    assert psp.count_optimal(trace) == 4
    alignments = psp.alignments_for(trace)
    assert len(alignments) == 4
    positions = set()
    for al in alignments:
        assert al.cost == 1
        assert is_proper(al, trace, rg)
        (k,) = [i for i, m in enumerate(al.moves) if m.op == OP_RHIDE]
        assert net.table.text(al.moves[k].label) == "A"
        positions.add(k)
    assert positions == {0, 1, 2, 3}


def test_all_optimal_perfect_fit_single_alignment():
    net, log, rg, dafsa = loan_setup()
    log2 = make_log([ids(net, "BDCAEG")], net.table)
    dafsa2 = build_dafsa(log2)
    psp = align_all_optimal(log2, dafsa2, rg)
    trace = ids(net, "BDCAEG")
    assert psp.cost(trace) == 0
    assert psp.count_optimal(trace) == 1
    (al,) = psp.alignments_for(trace)
    assert all(m.op == OP_MATCH for m in al.moves)


def test_all_optimal_matches_oracle_on_random_instances():
    from logalign.oracle import enumerate_optimal_move_sequences

    rng = random.Random(11)
    checked = 0
    for seed in range(25):
        net = random_workflow_net(seed, max_visible=6)
        try:
            rg = remove_tau(build_rg(net))
        except Exception:
            continue
        log = random_log(net, rng, n_traces=4, max_trace_len=6)
        dafsa = build_dafsa(log)
        psp = align_all_optimal(log, dafsa, rg)
        for trace in log.traces:
            cost, seqs = enumerate_optimal_move_sequences(trace.labels, rg)
            assert psp.cost(trace.labels) == cost, "seed %d" % seed
            assert psp.count_optimal(trace.labels) == len(seqs), \
                "seed %d trace %s" % (seed, trace.labels)
            checked += 1
    assert checked > 30


def test_memoization_changes_nothing_on_running_example():
    net, log, rg, dafsa = loan_setup()
    plain = align_all_optimal(log, dafsa, rg)
    memo = align_all_optimal(log, dafsa, rg, memo=MemoTables())
    for trace in log.traces:
        assert plain.cost(trace.labels) == memo.cost(trace.labels)
        assert plain.count_optimal(trace.labels) == memo.count_optimal(trace.labels)
        assert set(plain.alignments_for(trace.labels)) == set(memo.alignments_for(trace.labels))


def test_memoization_neutral_on_random_logs():
    rng = random.Random(23)
    logs_checked = 0
    for seed in range(40):
        net = random_workflow_net(seed, max_visible=6)
        try:
            rg = remove_tau(build_rg(net))
        except Exception:
            continue
        log = random_log(net, rng, n_traces=8, max_trace_len=8)
        dafsa = build_dafsa(log)
        plain = align_all_optimal(log, dafsa, rg)
        shared = MemoTables()
        memo = align_all_optimal(log, dafsa, rg, memo=shared)
        for trace in log.traces:
            assert plain.cost(trace.labels) == memo.cost(trace.labels), "seed %d" % seed
            assert plain.count_optimal(trace.labels) == memo.count_optimal(trace.labels)
        logs_checked += 1
    assert logs_checked >= 30


def test_one_optimal_cost_equals_oracle_and_heuristic_admissible():
    rng = random.Random(5)
    for seed in range(60):
        net = random_workflow_net(seed, max_visible=8)
        try:
            rg = remove_tau(build_rg(net))
        except Exception:
            continue
        log = random_log(net, rng, n_traces=3, max_trace_len=8)
        dafsa = build_dafsa(log)
        for trace in log.traces:
            stats = {}
            alignment = align_one_optimal(trace.labels, dafsa, rg, stats=stats)
            cost, _ = brute_force_optimal_cost(trace.labels, rg)
            assert alignment.cost == cost, "seed %d" % seed
            assert is_proper(alignment, trace.labels, rg)
            assert stats["max_rho_popped"] <= cost


def test_selected_alignment_maximizes_matches():
    # among the optima, the deterministic pick maximizes matches
    net, log, rg, dafsa = loan_setup()
    psp = align_all_optimal(log, dafsa, rg)
    for trace in log.traces:
        sel = align_one_optimal(trace.labels, dafsa, rg)
        optima = psp.alignments_for(trace.labels)
        assert sel in optima
        best_matches = max(sum(1 for m in al.moves if m.op == OP_MATCH) for al in optima)
        assert sum(1 for m in sel.moves if m.op == OP_MATCH) == best_matches


def test_all_optimal_through_model_loop():
    from logalign.oracle import enumerate_optimal_move_sequences

    net, log, rg, dafsa = loan_setup()
    trace = ids(net, "CABEHIEFG")  # runs through the request-more-info loop
    psp = align_all_optimal(log, dafsa, rg)
    cost, seqs = enumerate_optimal_move_sequences(trace, rg)
    assert psp.cost(trace) == cost == 3
    assert psp.count_optimal(trace) == len(seqs)
    for al in psp.alignments_for(trace):
        assert is_proper(al, trace, rg)


def test_memo_tables_populate_and_hit():
    net, log, rg, dafsa = loan_setup()
    memo = MemoTables()
    align_all_optimal(log, dafsa, rg, memo=memo)
    # the two branching prefixes and the two merge suffixes got recorded
    prefix_keys = {tuple(net.table.text(l) for l in k) for k in memo.prefix}
    assert tuple("BD") in prefix_keys
    assert tuple("CABE") in prefix_keys
    suffix_words = {tuple(net.table.text(l) for l in labels) for _, labels in memo.suffix}
    assert ("G",) in suffix_words or tuple("EFG") in suffix_words
    # a fresh trace sharing the B,D prefix seeds from the table
    trace = tuple(net.table.lookup(x) for x in "BD")
    assert memo.prefix_seeds(trace + (net.table.lookup("C"),))


def test_search_budget_error():
    import pytest as _pytest

    net, log, rg, dafsa = loan_setup()
    trace = tuple(net.table.lookup(x) for x in "CABEHIEFG")
    from logalign.errors import SearchBudgetError

    with _pytest.raises(SearchBudgetError):
        align_one_optimal(trace, dafsa, rg, node_budget=3)


def test_empty_trace_on_skippable_model():
    # a model that can silently run start-to-end accepts the empty trace
    from logalign.logs import LabelTable
    from logalign.petri import SystemNet

    table = LabelTable()
    net = SystemNet.build(
        ["i", "q", "o"],
        [("t_A", "A", ["i"], ["q"]), ("t_B", "B", ["q"], ["o"]),
         ("t_skip", None, ["i"], ["o"])],
        table)
    rg = remove_tau(build_rg(net))
    assert rg.m0 in rg.finals
    log = make_log([()], table)
    dafsa = build_dafsa(log)
    alignment = align_one_optimal((), dafsa, rg)
    assert alignment.cost == 0 and alignment.moves == ()
    psp = align_all_optimal(log, dafsa, rg)
    assert psp.cost(()) == 0
    assert psp.count_optimal(()) == 1
    assert psp.alignments_for(()) == (alignment,)


def test_psp_structure_running_example():
    net, log, rg, dafsa = loan_setup()
    psp = align_all_optimal(log, dafsa, rg)
    # merged product: every final has no outgoing arcs
    sources = {src for src, _, _ in psp.arcs}
    assert psp.finals
    assert not (psp.finals & sources)
    assert psp.nodes[psp.initial_key] == 0

