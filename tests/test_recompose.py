import random

from logalign.align import OP_LHIDE, OP_MATCH, OP_RHIDE, align_one_optimal
from logalign.invariants import decompose
from logalign.logs import make_log
from logalign.oracle import brute_force_optimal_cost
from logalign.reachability import build_rg, remove_tau
from logalign.recompose import (EXTENDED_LABEL_CONFLICT, SComponentAligner, hybrid_select,
                                replays_on_model, visible_run_realizable)
from logalign.sampledata import loan_pair

from gen import random_log, random_workflow_net
from nets import parallel_merge_net, parallel_tasks_net, sequence_net, skippable_parallel_net


def ids(net, word):
    return tuple(net.table.lookup(x) for x in word)


def as_text(net, alignment):
    return ["%s(%s)" % ({OP_MATCH: "m", OP_LHIDE: "l", OP_RHIDE: "r"}[m.op],
                        net.table.text(m.label))
            for m in alignment.moves]


def test_recompose_loan_trace_without_conflict():
    net, _ = loan_pair()
    aligner = SComponentAligner(net, full_rg=remove_tau(build_rg(net)))
    outcome = aligner.align_trace(ids(net, "BDAEFG"))
    assert outcome.conflict is None
    assert not outcome.fallback_used
    assert as_text(net, outcome.alignment) == \
        ["m(B)", "m(D)", "m(A)", "r(C)", "m(E)", "m(F)", "l(G)"]
    assert outcome.alignment.cost == 2
    assert replays_on_model(outcome.alignment, ids(net, "BDAEFG"), remove_tau(build_rg(net)))


def test_recompose_all_loan_traces_proper():
    net, log = loan_pair()
    aligner = SComponentAligner(net, full_rg=remove_tau(build_rg(net)))
    full = remove_tau(build_rg(net))
    for trace in log.traces:
        outcome = aligner.align_trace(trace.labels)
        assert outcome.alignment is not None
        assert replays_on_model(outcome.alignment, trace.labels, full)
        oracle_cost, _ = brute_force_optimal_cost(trace.labels, full)
        assert outcome.alignment.cost >= oracle_cost


def test_aligner_takes_traces_it_was_never_built_with():
    # the aligner is built from the net alone; any trace gets a proper
    # alignment that never costs less than the optimum
    cases = []
    net, _ = loan_pair()
    cases.append((net, [ids(net, "BDAEFG"), ids(net, "GFEDCBA"), ids(net, "AAB"), ()]))
    rng = random.Random(43)
    for seed in range(12):
        rnet = random_workflow_net(seed, max_visible=6)
        try:
            remove_tau(build_rg(rnet))
        except Exception:
            continue
        cases.append((rnet, [t.labels for t in
                             random_log(rnet, rng, n_traces=4, max_trace_len=8).traces]))
    checked = 0
    for net, traces in cases:
        full = remove_tau(build_rg(net))
        aligner = SComponentAligner(net, full_rg=full)
        for trace in traces:
            outcome = aligner.align_trace(trace)
            assert outcome.alignment is not None, outcome.error
            assert replays_on_model(outcome.alignment, trace, full)
            assert outcome.alignment.cost >= brute_force_optimal_cost(trace, full)[0]
            checked += 1
    assert checked >= 30


def test_recompose_over_approximates_parallel_merge():
    net = parallel_merge_net()
    aligner = SComponentAligner(net, full_rg=remove_tau(build_rg(net)))
    outcome = aligner.align_trace(ids(net, "CAB"))
    assert outcome.conflict is None and not outcome.fallback_used
    assert as_text(net, outcome.alignment) == ["r(A)", "r(B)", "m(C)", "l(A)", "l(B)"]
    assert outcome.alignment.cost == 4
    rg = remove_tau(build_rg(net))
    oracle_cost, _ = brute_force_optimal_cost(ids(net, "CAB"), rg)
    assert oracle_cost == 2
    assert replays_on_model(outcome.alignment, ids(net, "CAB"), rg)


def test_recompose_extended_label_conflict_falls_back():
    net = skippable_parallel_net()
    aligner = SComponentAligner(net, full_rg=remove_tau(build_rg(net)))
    outcome = aligner.align_trace(ids(net, "ABD"))
    assert outcome.conflict == EXTENDED_LABEL_CONFLICT
    assert outcome.fallback_used
    rg = remove_tau(build_rg(net))
    oracle_cost, _ = brute_force_optimal_cost(ids(net, "ABD"), rg)
    assert outcome.alignment.cost == oracle_cost == 1
    assert replays_on_model(outcome.alignment, ids(net, "ABD"), rg)


def test_recompose_without_trails_would_be_improper():
    # the conflicting trace recomposes to a non-path if trails are ignored,
    # which is exactly why extended labels exist
    net = skippable_parallel_net()
    rg = remove_tau(build_rg(net))
    aligner = SComponentAligner(net, full_rg=rg)
    lanes_ok = aligner.align_trace(ids(net, "ABD"))
    assert lanes_ok.fallback_used
    # m(A), m(B), m(D) does not correspond to any path of the full graph
    from logalign.align import Move, make_alignment

    fake = make_alignment([
        Move(OP_MATCH, net.table.lookup("A"), (), None, None),
        Move(OP_MATCH, net.table.lookup("B"), (), None, None),
        Move(OP_MATCH, net.table.lookup("D"), (), None, None),
    ])
    assert not replays_on_model(fake, ids(net, "ABD"), rg)


def test_recompose_random_instances_proper_and_bounded():
    rng = random.Random(17)
    recomposed_count = 0
    for seed in range(40):
        net = random_workflow_net(seed, max_visible=6)
        try:
            full = remove_tau(build_rg(net))
        except Exception:
            continue
        log = random_log(net, rng, n_traces=4, max_trace_len=8)
        aligner = SComponentAligner(net, full_rg=full)
        decomposition = decompose(net)
        k = len(decomposition.components)
        for trace in log.traces:
            outcome = aligner.align_trace(trace.labels)
            if outcome.alignment is None:
                continue
            assert replays_on_model(outcome.alignment, trace.labels, full), "seed %d" % seed
            oracle_cost, _ = brute_force_optimal_cost(trace.labels, full)
            assert outcome.alignment.cost >= oracle_cost
            if outcome.fallback_used:
                assert outcome.alignment.cost == oracle_cost
            else:
                recomposed_count += 1
                # worst-case over-approximation bound
                parallel_labels = {
                    net.transitions[t].label
                    for t in range(len(net.transitions))
                    if net.transitions[t].label and len(decomposition.transition_cover[t]) < k
                }
                reps = max([sum(1 for l in trace.labels if l == p) for p in parallel_labels],
                           default=0)
                assert outcome.alignment.cost - oracle_cost <= k * reps, "seed %d" % seed
    assert recomposed_count >= 40


def test_hybrid_prefers_components_for_parallel_net():
    net = parallel_tasks_net(["T%d" % i for i in range(8)])
    rg = remove_tau(build_rg(net))
    aligner = SComponentAligner(net, full_rg=rg)
    choice, info = hybrid_select(rg, aligner.component_rgs())
    assert choice == "s-component"
    assert info["component_rg_total"] < info["rg_size"]
    assert info["rg_size"] >= 2 ** 8


def test_hybrid_prefers_monolithic_for_sequence():
    net = sequence_net(["A", "B", "C"])
    rg = remove_tau(build_rg(net))
    aligner = SComponentAligner(net, full_rg=rg)
    choice, info = hybrid_select(rg, aligner.component_rgs())
    assert choice == "monolithic"
    assert info["component_rg_total"] == info["rg_size"]


def test_hybrid_without_graphs():
    assert hybrid_select(None, None)[0] == "monolithic"
    net = sequence_net(["A"])
    rg = remove_tau(build_rg(net))
    assert hybrid_select(None, [rg])[0] == "s-component"


def test_recompose_label_unknown_to_model_is_log_move():
    # an activity recorded in the log but absent from the net has no owning
    # component; it must compose as a plain log-only move, not a conflict
    net, _ = loan_pair()
    trace = tuple(net.table.lookup(x) if net.table.lookup(x) is not None
                  else net.table.intern(x) for x in ["B", "D", "C", "ZZZ", "E", "G"])
    aligner = SComponentAligner(net, full_rg=remove_tau(build_rg(net)))
    outcome = aligner.align_trace(trace)
    assert outcome.conflict is None
    assert not outcome.fallback_used
    assert outcome.alignment.cost == 2  # skip A in the model, skip ZZZ in the log
    assert replays_on_model(outcome.alignment, trace, remove_tau(build_rg(net)))
    ops = [(m.op, net.table.text(m.label)) for m in outcome.alignment.moves]
    assert (OP_LHIDE, "ZZZ") in ops


def test_monolithic_label_unknown_to_model():
    net, _ = loan_pair()
    trace = tuple(net.table.lookup(x) if net.table.lookup(x) is not None
                  else net.table.intern(x) for x in ["B", "D", "C", "ZZZ", "E", "G"])
    rg = remove_tau(build_rg(net))
    alignment = align_one_optimal(trace, rg)
    oracle_cost, _ = brute_force_optimal_cost(trace, rg)
    assert alignment.cost == oracle_cost == 2


def test_recompose_trace_with_only_foreign_labels():
    net, _ = loan_pair()
    zzz = net.table.intern("ZZZ")
    trace = (zzz,)
    aligner = SComponentAligner(net, full_rg=remove_tau(build_rg(net)))
    outcome = aligner.align_trace(trace)
    assert outcome.conflict is None and not outcome.fallback_used
    rg = remove_tau(build_rg(net))
    assert outcome.alignment.cost == 1 + rg.min_visible_skips()
    assert replays_on_model(outcome.alignment, trace, rg)


def test_conflict_taxonomy_all_kinds_occur():
    # order, operation, and extended-label conflicts all surface on random
    # instances, and every conflicting trace still gets an optimal fallback
    rng = random.Random(31)
    kinds = set()
    for seed in range(60):
        net = random_workflow_net(seed, max_visible=6)
        try:
            full = remove_tau(build_rg(net))
        except Exception:
            continue
        log = random_log(net, rng, n_traces=4, max_trace_len=9)
        aligner = SComponentAligner(net, full_rg=full)
        for trace in log.traces:
            outcome = aligner.align_trace(trace.labels)
            if outcome.conflict:
                kinds.add(outcome.conflict)
                assert outcome.fallback_used
                if outcome.alignment is not None:
                    oracle_cost, _ = brute_force_optimal_cost(trace.labels, full)
                    assert outcome.alignment.cost == oracle_cost
    assert kinds == {"order-conflict", "operation-conflict", "extended-label-conflict"}


def test_projected_alignment_cache_reuse():
    net = parallel_merge_net()
    log = make_log([ids(net, "ABC"), ids(net, "BAC")], net.table)
    aligner = SComponentAligner(net, full_rg=remove_tau(build_rg(net)))
    for trace in log.traces:
        outcome = aligner.align_trace(trace.labels)
        assert outcome.alignment.cost == 0
    # both interleavings project to the same per-component traces
    assert len(aligner._proj_cache) == len(aligner.components)


def test_lane_owners_follow_the_alphabets():
    for net in (loan_pair()[0], random_workflow_net(5, max_visible=10)):
        aligner = SComponentAligner(net, full_rg=remove_tau(build_rg(net)))
        alphabets = [comp.alphabet for comp, _ in aligner.components]
        labels = {label for alphabet in alphabets for label in alphabet}
        assert set(aligner.owners) == labels
        for label in labels:
            assert aligner.owners[label] == tuple(
                i for i, alphabet in enumerate(alphabets) if label in alphabet)


def test_visible_run_realizable_builds_its_tables_once_per_net():
    net, _ = loan_pair()
    run = ids(net, "BDACEG")
    assert visible_run_realizable(net, run)
    assert not visible_run_realizable(net, ids(net, "BDACG"))
    net.transitions = ()  # rebuilt tables would hold no transition at all
    assert visible_run_realizable(net, run)
