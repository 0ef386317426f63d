import random

from logalign.align import OP_LHIDE, OP_MATCH, OP_RHIDE, Move, align_one_optimal, make_alignment
from logalign.errors import LogAlignError, SearchBudgetError
from logalign.invariants import decompose
from logalign.logs import make_log
from logalign.oracle import brute_force_optimal_cost
from logalign.reachability import build_rg, remove_tau
from logalign.recompose import (EXTENDED_LABEL_CONFLICT, OPERATION_CONFLICT, ORDER_CONFLICT,
                                RecompositionOutcome, SComponentAligner, hybrid_select,
                                replays_on_model, visible_run_realizable)
from logalign.report import RunConfig, run_conformance
from logalign.sampledata import loan_pair

from gen import noised_trace, random_log, random_model_run, random_workflow_net
from nets import parallel_merge_net, parallel_tasks_net, sequence_net, skippable_parallel_net


def ids(net, word):
    return tuple(net.table.lookup(x) for x in word)


def as_text(net, alignment):
    return ["%s(%s)" % ({OP_MATCH: "m", OP_LHIDE: "l", OP_RHIDE: "r"}[m.op],
                        net.table.text(m.label))
            for m in alignment.moves]


def test_recompose_loan_trace_without_conflict():
    net, _ = loan_pair()
    aligner = SComponentAligner(net)
    outcome = aligner.align_trace(ids(net, "BDAEFG"))
    assert outcome.conflict is None
    assert not outcome.fallback_used
    assert as_text(net, outcome.alignment) == \
        ["m(B)", "m(D)", "m(A)", "r(C)", "m(E)", "m(F)", "l(G)"]
    assert outcome.alignment.cost == 2
    assert replays_on_model(outcome.alignment, ids(net, "BDAEFG"), remove_tau(build_rg(net)))


def test_recompose_all_loan_traces_proper():
    net, log = loan_pair()
    aligner = SComponentAligner(net)
    full = remove_tau(build_rg(net))
    for trace in log.traces:
        outcome = aligner.align_trace(trace.labels)
        assert outcome.alignment is not None
        assert replays_on_model(outcome.alignment, trace.labels, full)
        oracle_cost, _ = brute_force_optimal_cost(trace.labels, full)
        assert outcome.alignment.cost >= oracle_cost


def test_aligner_takes_traces_it_was_never_built_with():
    # the aligner is built from the net alone; any trace gets a proper
    # alignment that never costs less than the optimum, or a conflict, which
    # the pipeline answers with the optimum
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
        aligner = SComponentAligner(net)
        rows = run_conformance(net, make_log(traces, net.table),
                               RunConfig(strategy="scomponent")).report["traces"]
        costs = {tuple(row["labels"]): row["cost"] for row in rows}
        for trace in traces:
            outcome = aligner.align_trace(trace)
            assert outcome.error is None
            optimum = brute_force_optimal_cost(trace, full)[0]
            if outcome.alignment is None:
                assert outcome.conflict is not None
                assert costs[tuple(net.table.text(x) for x in trace)] == optimum
            else:
                assert replays_on_model(outcome.alignment, trace, full)
                assert outcome.alignment.cost >= optimum
            checked += 1
    assert checked >= 30


def test_recompose_over_approximates_parallel_merge():
    net = parallel_merge_net()
    aligner = SComponentAligner(net)
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
    aligner = SComponentAligner(net)
    outcome = aligner.align_trace(ids(net, "ABD"))
    assert outcome.conflict == EXTENDED_LABEL_CONFLICT
    assert outcome.fallback_used and outcome.alignment is None
    rg = remove_tau(build_rg(net))
    oracle_cost, _ = brute_force_optimal_cost(ids(net, "ABD"), rg)
    (row,) = run_conformance(net, make_log([ids(net, "ABD")], net.table),
                             RunConfig(strategy="scomponent")).report["traces"]
    assert (row["strategy"], row["conflict"]) == ("s-component+fallback", EXTENDED_LABEL_CONFLICT)
    assert row["cost"] == oracle_cost == 1


def test_recompose_without_trails_would_be_improper():
    # the conflicting trace recomposes to a non-path if trails are ignored,
    # which is exactly why extended labels exist
    net = skippable_parallel_net()
    rg = remove_tau(build_rg(net))
    aligner = SComponentAligner(net)
    lanes_ok = aligner.align_trace(ids(net, "ABD"))
    assert lanes_ok.fallback_used
    # m(A), m(B), m(D) does not correspond to any path of the full graph
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
        aligner = SComponentAligner(net)
        decomposition = decompose(net)
        k = len(decomposition.components)
        for trace in log.traces:
            outcome = aligner.align_trace(trace.labels)
            if outcome.alignment is None:
                continue
            assert replays_on_model(outcome.alignment, trace.labels, full), "seed %d" % seed
            oracle_cost, _ = brute_force_optimal_cost(trace.labels, full)
            assert outcome.alignment.cost >= oracle_cost
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
    aligner = SComponentAligner(net)
    choice, info = hybrid_select(rg, aligner.component_rgs())
    assert choice == "s-component"
    assert info["component_rg_total"] < info["rg_size"]
    assert info["rg_size"] >= 2 ** 8


def test_hybrid_prefers_monolithic_for_sequence():
    net = sequence_net(["A", "B", "C"])
    rg = remove_tau(build_rg(net))
    aligner = SComponentAligner(net)
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
    aligner = SComponentAligner(net)
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
    aligner = SComponentAligner(net)
    outcome = aligner.align_trace(trace)
    assert outcome.conflict is None and not outcome.fallback_used
    rg = remove_tau(build_rg(net))
    assert outcome.alignment.cost == 1 + rg.min_visible_skips()
    assert replays_on_model(outcome.alignment, trace, rg)


def test_conflict_taxonomy_all_kinds_occur():
    # order, operation, and extended-label conflicts all surface on random
    # instances; a conflicting trace carries no alignment of its own
    rng = random.Random(31)
    kinds = set()
    for seed in range(60):
        net = random_workflow_net(seed, max_visible=6)
        try:
            full = remove_tau(build_rg(net))
        except Exception:
            continue
        log = random_log(net, rng, n_traces=4, max_trace_len=9)
        aligner = SComponentAligner(net)
        for trace in log.traces:
            outcome = aligner.align_trace(trace.labels)
            if outcome.conflict:
                kinds.add(outcome.conflict)
                assert outcome.fallback_used
                assert outcome.alignment is None and outcome.error is None
    assert kinds == {"order-conflict", "operation-conflict", "extended-label-conflict"}


def test_projected_alignment_cache_reuse():
    net = parallel_merge_net()
    log = make_log([ids(net, "ABC"), ids(net, "BAC")], net.table)
    aligner = SComponentAligner(net)
    for trace in log.traces:
        outcome = aligner.align_trace(trace.labels)
        assert outcome.alignment.cost == 0
    # both interleavings project to the same per-component traces
    assert len(aligner._proj_cache) == len(aligner.components)


def test_lane_owners_follow_the_alphabets():
    for net in (loan_pair()[0], random_workflow_net(5, max_visible=10)):
        aligner = SComponentAligner(net)
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


# -- the exact reference: the replay as it was before it kept incremental state


class ReferenceLane:
    """Per-component replay cursor over a projected alignment."""

    __slots__ = ("moves", "pos")

    def __init__(self, moves):
        self.moves = moves
        self.pos = 0

    def peek(self):
        return self.moves[self.pos] if self.pos < len(self.moves) else None


def reference_align_trace(aligner, trace, deadline=None):
    """``align_trace`` with one projection pass per component and a replay
    that rescans every lane each round."""
    trace = tuple(trace)
    try:
        lanes = []
        for idx, (comp, _) in enumerate(aligner.components):
            projected = tuple(l for l in trace if l in comp.alphabet)
            moves = aligner._proj_cache.get((idx, projected))
            if moves is None:
                moves = aligner._lane_moves(idx, projected, deadline)
            lanes.append(ReferenceLane(moves))
    except SearchBudgetError as exc:
        return RecompositionOutcome(None, None, str(exc))
    composed, conflict = reference_replay(aligner, trace, lanes)
    if conflict is None:
        visible = [m.label for m in composed if m.op != OP_LHIDE]
        if not visible_run_realizable(aligner.net, visible):
            conflict = EXTENDED_LABEL_CONFLICT
    if conflict is None:
        return RecompositionOutcome(make_alignment(composed), None)
    return RecompositionOutcome(None, conflict)


def reference_replay(aligner, trace, lanes):
    composed = []
    for pos_c in range(len(trace) + 1):
        label = trace[pos_c] if pos_c < len(trace) else None
        conflict = reference_catch_up(aligner, label, lanes, composed)
        if conflict:
            return None, conflict
        if label is None:
            break
        owners = aligner.owners.get(label, ())
        nexts = [lanes[i].peek() for i in owners]
        if any(n is None or n[1] != label for n in nexts):
            return None, OPERATION_CONFLICT
        ops = {n[0] for n in nexts}
        if not owners or ops == {OP_LHIDE}:
            composed.append(Move(OP_LHIDE, label, (), None, None))
        elif ops == {OP_MATCH}:
            trails = {n[2] for n in nexts}
            if len(trails) > 1:
                return None, EXTENDED_LABEL_CONFLICT
            composed.append(Move(OP_MATCH, label, trails.pop(), None, None))
        else:
            return None, OPERATION_CONFLICT
        for i in owners:
            lanes[i].pos += 1
    return composed, None


def reference_catch_up(aligner, label, lanes, composed):
    while True:
        if label is None:
            waiting = any(lane.peek() is not None for lane in lanes)
        else:
            waiting = any(nxt is not None and nxt[1] != label
                          for nxt in (lanes[i].peek() for i in aligner.owners.get(label, ())))
        if not waiting:
            return None
        proposals = {}
        for i, lane in enumerate(lanes):
            nxt = lane.peek()
            if nxt is not None and nxt[0] == OP_RHIDE:
                proposals.setdefault((nxt[1], nxt[2]), set()).add(i)
        chosen = None
        for (x, trail), members in sorted(
                proposals.items(), key=lambda kv: (aligner.net.table.rank()[kv[0][0]], kv[0][1])):
            if members == set(aligner.owners.get(x, ())):
                chosen = (x, trail, members)
                break
        if chosen is None:
            by_label = {}
            for (x, trail), members in proposals.items():
                by_label.setdefault(x, set()).update(members)
            for x, members in by_label.items():
                if members == set(aligner.owners.get(x, ())) and \
                        len({t for (y, t) in proposals if y == x}) > 1:
                    return EXTENDED_LABEL_CONFLICT
            return ORDER_CONFLICT
        x, trail, members = chosen
        composed.append(Move(OP_RHIDE, x, trail, None, None))
        for i in members:
            lanes[i].pos += 1


def test_align_trace_matches_the_reference_replay():
    rng = random.Random(12)
    nets = 0
    kinds = {}
    for seed in range(200):
        net = random_workflow_net(seed, max_visible=8)
        try:
            remove_tau(build_rg(net))
            aligner = SComponentAligner(net)
        except LogAlignError:
            continue
        nets += 1
        log = random_log(net, rng, n_traces=10, max_trace_len=10)
        for trace in log.traces:
            # a passed deadline fails the first lane search that misses the cache
            for deadline in (0.0, None):
                got = aligner.align_trace(trace.labels, deadline)
                expected = reference_align_trace(aligner, trace.labels, deadline)
                assert (got.conflict, got.fallback_used, got.error) == \
                    (expected.conflict, expected.fallback_used, expected.error), "seed %d" % seed
                assert (got.alignment and got.alignment.moves) == \
                    (expected.alignment and expected.alignment.moves), "seed %d" % seed
            kinds[got.conflict] = kinds.get(got.conflict, 0) + 1
    assert nets >= 200
    assert {ORDER_CONFLICT, OPERATION_CONFLICT, EXTENDED_LABEL_CONFLICT} <= set(kinds)


def graph_accepts(rg, labels):
    """Whether a walk over the tau-free graph's label sets spells ``labels``
    from the initial marking and ends in a final one."""
    current = {rg.m0}
    for label in labels:
        current = {a.tgt for u in current for a in rg.out[u] if a.label == label}
        if not current:
            return False
    return bool(current & rg.finals)


def test_visible_run_realizable_agrees_with_the_graph():
    rng = random.Random(23)
    nets = [loan_pair()[0]]
    nets += [parallel_tasks_net(["T%d" % i for i in range(k)]) for k in range(1, 7)]
    nets += [random_workflow_net(seed, max_visible=8) for seed in range(40)]
    answers = []
    for net in nets:
        rg = remove_tau(build_rg(net))
        for _ in range(8):
            run = random_model_run(net, rng)
            for labels in (run, noised_trace(run, net, rng, edits=1),
                           noised_trace(run, net, rng, edits=3)):
                expected = graph_accepts(rg, labels)
                assert visible_run_realizable(net, labels) == expected, labels
                answers.append(expected)
    assert answers.count(True) >= 100 and answers.count(False) >= 100
