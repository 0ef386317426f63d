import heapq
import random
import time
from itertools import islice
from typing import NamedTuple

import pytest

from logalign import align as align_module
from logalign.align import (DEFAULT_NODE_BUDGET, OP_LHIDE, OP_MATCH, OP_RHIDE,
                            align_one_optimal, alignment_cost, all_optimal_alignments, is_proper,
                            make_alignment, Move, _Budget, future_table, _Node,
                            _lhides, _move)
from logalign.errors import DecompositionError, LogAlignError, SearchBudgetError
from logalign.heuristic import FutureLabelTable, precompute_future_labels
from logalign.invariants import decompose
from logalign.oracle import brute_force_optimal_cost, enumerate_optimal_move_sequences
from logalign.reachability import (ReachabilityGraph, Successor, build_rg, remove_tau,
                                   remove_tau_extended)
from logalign.recompose import replays_on_model
from logalign.sampledata import loan_pair

from gen import random_log, random_workflow_net
from nets import parallel_merge_net, parallel_tasks_net


def loan_setup():
    net, log = loan_pair()
    rg = remove_tau(build_rg(net))
    return net, log, rg


def moves_as_text(net, alignment):
    out = []
    for m in alignment.moves:
        op = {OP_MATCH: "m", OP_LHIDE: "l", OP_RHIDE: "r"}[m.op]
        out.append("%s(%s)" % (op, net.table.text(m.label)))
    return out


def ids(net, word):
    return tuple(net.table.lookup(x) for x in word)


def test_alignment_cost_function():
    mk = lambda op, label: Move(op, label, (), None, None)
    assert alignment_cost([mk(OP_MATCH, 1)] * 6) == 0
    assert alignment_cost([mk(OP_MATCH, 1), mk(OP_RHIDE, 2)]) == 1
    assert alignment_cost([mk(OP_RHIDE, 1), mk(OP_RHIDE, 2), mk(OP_MATCH, 3),
                           mk(OP_LHIDE, 1), mk(OP_LHIDE, 2)]) == 4
    # silent hides are free
    assert alignment_cost([mk(OP_RHIDE, 0)]) == 0


def test_one_optimal_running_example_selected_alignment():
    net, log, rg = loan_setup()
    alignment = align_one_optimal(ids(net, "BDCEG"), rg)
    assert alignment.cost == 1
    assert moves_as_text(net, alignment) == ["m(B)", "m(D)", "m(C)", "r(A)", "m(E)", "m(G)"]
    assert is_proper(alignment, ids(net, "BDCEG"), rg)


def test_one_optimal_is_deterministic_across_runs():
    outputs = set()
    for _ in range(10):
        net, log, rg = loan_setup()
        alignment = align_one_optimal(ids(net, "BDCEG"), rg)
        outputs.add(tuple(moves_as_text(net, alignment)))
    assert len(outputs) == 1


def test_one_optimal_second_running_trace():
    net, log, rg = loan_setup()
    alignment = align_one_optimal(ids(net, "BDAEFG"), rg)
    assert moves_as_text(net, alignment) == \
        ["m(B)", "m(D)", "m(A)", "r(C)", "m(E)", "m(F)", "l(G)"]
    assert alignment.cost == 2


def test_one_optimal_empty_trace_all_rhide():
    net = parallel_merge_net()
    rg = remove_tau(build_rg(net))
    alignment = align_one_optimal((), rg)
    assert all(m.op == OP_RHIDE for m in alignment.moves)
    assert alignment.cost == rg.min_visible_skips() == 3
    assert is_proper(alignment, (), rg)


def test_all_optimal_running_example_exactly_four():
    net, log, rg = loan_setup()
    trace = ids(net, "BDCEG")
    optima = all_optimal_alignments(trace, rg)
    assert optima.cost == 1
    assert optima.n_optimal == 4
    alignments = optima.alignments()
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
    net, log, rg = loan_setup()
    optima = all_optimal_alignments(ids(net, "BDCAEG"), rg)
    assert optima.cost == 0
    assert optima.n_optimal == 1
    (al,) = optima.alignments()
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
        for trace in log.traces:
            optima = all_optimal_alignments(trace.labels, rg)
            cost, seqs = enumerate_optimal_move_sequences(trace.labels, rg)
            assert optima.cost == cost, "seed %d" % seed
            assert optima.n_optimal == len(seqs), \
                "seed %d trace %s" % (seed, trace.labels)
            checked += 1
    assert checked > 30


def test_one_optimal_cost_equals_oracle_and_heuristic_admissible():
    rng = random.Random(5)
    for seed in range(60):
        net = random_workflow_net(seed, max_visible=8)
        try:
            rg = remove_tau(build_rg(net))
        except Exception:
            continue
        log = random_log(net, rng, n_traces=3, max_trace_len=8)
        for trace in log.traces:
            stats = {}
            alignment = align_one_optimal(trace.labels, rg, stats=stats)
            cost, _ = brute_force_optimal_cost(trace.labels, rg)
            assert alignment.cost == cost, "seed %d" % seed
            assert is_proper(alignment, trace.labels, rg)
            assert stats["max_rho_popped"] <= cost


def test_selected_alignment_maximizes_matches():
    # among the optima, the deterministic pick maximizes matches
    net, log, rg = loan_setup()
    for trace in log.traces:
        sel = align_one_optimal(trace.labels, rg)
        optima = all_optimal_alignments(trace.labels, rg).alignments()
        assert sel in optima
        best_matches = max(sum(1 for m in al.moves if m.op == OP_MATCH) for al in optima)
        assert sum(1 for m in sel.moves if m.op == OP_MATCH) == best_matches


def test_all_optimal_through_model_loop():
    from logalign.oracle import enumerate_optimal_move_sequences

    net, log, rg = loan_setup()
    trace = ids(net, "CABEHIEFG")  # runs through the request-more-info loop
    optima = all_optimal_alignments(trace, rg)
    cost, seqs = enumerate_optimal_move_sequences(trace, rg)
    assert optima.cost == cost == 3
    assert optima.n_optimal == len(seqs)
    for al in optima.alignments():
        assert is_proper(al, trace, rg)


def test_search_budget_error():
    import pytest as _pytest

    net, log, rg = loan_setup()
    trace = tuple(net.table.lookup(x) for x in "CABEHIEFG")
    from logalign.errors import SearchBudgetError

    with _pytest.raises(SearchBudgetError):
        align_one_optimal(trace, rg, node_budget=3)


def test_one_optimal_stops_at_a_deadline_already_passed():
    net, log, rg = loan_setup()
    past = time.monotonic() - 1.0
    for trace in log.traces:
        with pytest.raises(SearchBudgetError, match="deadline"):
            align_one_optimal(trace.labels, rg, deadline=past)


def test_all_optimal_stops_at_a_deadline_already_passed():
    net, log, rg = loan_setup()
    past = time.monotonic() - 1.0
    for trace in log.traces:
        with pytest.raises(SearchBudgetError, match="deadline"):
            all_optimal_alignments(trace.labels, rg, deadline=past)


def test_all_optimal_stops_at_its_node_budget():
    net, log, rg = loan_setup()
    for trace in log.traces:
        with pytest.raises(SearchBudgetError, match="node budget"):
            all_optimal_alignments(trace.labels, rg, node_budget=1)


def test_budget_reads_the_clock_on_the_first_pop_and_every_256_after():
    budget = _Budget(1000, None)
    reads = []

    class Deadline:
        def __lt__(self, now):  # reached through time.monotonic() > deadline
            reads.append(budget.spent)
            return False

    budget.deadline = Deadline()
    for _ in range(600):
        budget.spend()
    assert reads == [1, 257, 513]


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
    alignment = align_one_optimal((), rg)
    assert alignment.cost == 0 and alignment.moves == ()
    optima = all_optimal_alignments((), rg)
    assert optima.cost == 0
    assert optima.n_optimal == 1
    assert optima.alignments() == (alignment,)


def reference_chain(node):
    """Move keys from the root, rebuilt from each node's move and label rank."""
    keys = []
    while node.parent is not None:
        if isinstance(node.succ, Successor):
            keys.append((node.op, node.lrank, node.succ.tgt, node.succ.trail))
        else:  # an lhide carries only its label
            keys.append((node.op, node.lrank, -1, ()))
        node = node.parent
    keys.reverse()
    return keys


def reference_lt(a, b):
    return reference_chain(a) < reference_chain(b)


def node_key(node):
    return node.op, node.lrank, node.succ


def child(parent, op, label, rg_tgt=None, trail=(), lrank=None):
    tgt = -1 if rg_tgt is None else rg_tgt
    lrank = label if lrank is None else lrank
    if tgt == -1 and not trail:
        return _Node(parent, op, lrank, (-1, (), label), parent.mid)
    return _Node(parent, op, lrank, Successor(tgt, trail, label, lrank), tgt)


def assert_same_order(nodes):
    """Every pair the heap can compare, two distinct nodes of equal length,
    orders as its chains do."""
    pairs = 0
    for a in nodes:
        for b in nodes:
            if a is not b and len(reference_chain(a)) == len(reference_chain(b)):
                assert (a < b) == reference_lt(a, b), (reference_chain(a), reference_chain(b))
                pairs += 1
    return pairs


def test_tie_compare_matches_chain_order_on_hand_trees():
    root = _Node(None, OP_MATCH, 0, None, 0)
    s1 = child(root, OP_MATCH, 3, rg_tgt=1)
    s2 = child(root, OP_RHIDE, 1, rg_tgt=2)  # sibling of s1 with a larger op
    s1a = child(s1, OP_LHIDE, 2)
    s1b = child(s1, OP_LHIDE, 2, trail=(5,))  # sibling of s1a with a larger trail
    s2a = child(s2, OP_MATCH, 1, rg_tgt=3)  # a smaller key than its cousins'
    s2b = child(s2, OP_LHIDE, 2)  # the key of its cousin s1a
    s1aa = child(s1a, OP_RHIDE, 4, rg_tgt=7)
    s2aa = child(s2a, OP_MATCH, 0, rg_tgt=8)
    assert assert_same_order([root, s1, s2, s1a, s1b, s2a, s2b, s1aa, s2aa]) == 2 + 12 + 2
    assert s1 < s2 and not s2 < s1
    assert s1a < s1b and not s1b < s1a
    assert s1b < s2a and not s2a < s1b  # decided by the parents
    assert s1a < s2b and not s2b < s1a
    assert s1aa < s2aa and not s2aa < s1aa  # decided two levels up


def test_tie_compare_matches_chain_order_on_random_trees():
    rng = random.Random(17)
    pairs = 0
    for _ in range(20):
        nodes = [_Node(None, OP_MATCH, 0, None, 0)]
        for _ in range(40):
            parent = rng.choice(nodes)
            # few distinct moves, so cousins often share keys; siblings never
            # do, as a search settles each child state once
            node = child(parent, rng.choice((OP_MATCH, OP_RHIDE)), rng.randint(1, 2),
                         rg_tgt=rng.choice((None, 1)), trail=rng.choice(((), (9,))))
            if all(x.parent is not parent or node_key(x) != node_key(node) for x in nodes):
                nodes.append(node)
        pairs += assert_same_order(nodes)
    assert pairs > 1000


def test_one_optimal_unchanged_under_chain_order(monkeypatch):
    rng = random.Random(29)
    cases = []
    for seed in range(40):
        net = random_workflow_net(seed, max_visible=8)
        try:
            rg = remove_tau(build_rg(net))
        except LogAlignError:
            continue
        log = random_log(net, rng, n_traces=4, max_trace_len=10)
        cases.extend((trace.labels, rg) for trace in log.traces)
    assert len(cases) >= 100
    fast = [align_one_optimal(*case).moves for case in cases]
    monkeypatch.setattr(_Node, "__lt__", reference_lt)
    assert [align_one_optimal(*case).moves for case in cases] == fast


def reference_alignments(edges, root, limit=None):
    """The first ``limit`` optimal alignments (all by default), depth first
    in edge order, listed lazily by a recursive generator: some cases have
    over a million optima."""

    def rec(key, acc):
        nexts = edges.get(key, ())
        if not nexts:
            yield make_alignment(acc)
        for move, nkey in nexts:
            yield from rec(nkey, acc + [move])

    return tuple(islice(rec(root, []), limit))


class ReferenceSet(NamedTuple):
    """A reference search's optima: their cost, their edge DAG from
    ``root`` and the number of its root-to-leaf paths."""

    cost: int
    edges: dict
    root: tuple
    n_optimal: int

    def alignments(self, limit=None):
        return reference_alignments(self.edges, self.root, limit)


def test_optimal_alignments_listed_in_recursive_order():
    rng = random.Random(3)
    checked = 0
    for seed in range(25):
        net = random_workflow_net(seed, max_visible=6)
        try:
            rg = remove_tau(build_rg(net))
        except LogAlignError:
            continue
        log = random_log(net, rng, n_traces=4, max_trace_len=8)
        for trace in log.traces:
            optima = all_optimal_alignments(trace.labels, rg)
            expected = reference_alignments(optima.edges, optima.root)
            assert optima.n_optimal == len(expected)
            assert optima.alignments(limit=2) == expected[:2]
            assert optima.alignments() == expected
            checked += 1
    assert checked > 30


def test_all_optimal_on_a_trace_longer_than_the_recursion_limit():
    net, _, rg = loan_setup()
    trace = ids(net, "A" * 1200)
    optima = all_optimal_alignments(trace, rg)
    assert optima.cost == align_one_optimal(trace, rg).cost
    assert optima.n_optimal >= 1
    first, second = optima.alignments(limit=2)
    assert first != second
    for al in (first, second):
        assert al.cost == optima.cost
        assert is_proper(al, trace, rg)


class ReferenceNode:
    """The search node of the exact reference: one per push, keyed on its Move."""

    __slots__ = ("parent", "move", "key", "pos", "mid", "g", "length", "lrank")

    def __init__(self, parent, move, pos, mid, g, lrank):
        self.parent = parent
        self.move = move
        self.pos = pos
        self.mid = mid
        self.g = g
        self.lrank = lrank
        if parent is None:
            self.length = 0
            self.key = None
        else:
            self.length = parent.length + 1
            self.key = (move.op, lrank,
                        -1 if move.rg_tgt is None else move.rg_tgt, move.trail)

    def chain(self):
        keys = []
        node = self
        while node.parent is not None:
            keys.append(node.key)
            node = node.parent
        keys.reverse()
        return keys

    def __lt__(self, other):
        a, b = self, other
        while a.length > b.length:
            a = a.parent
        while b.length > a.length:
            b = b.parent
        if a is b:
            return self.length < other.length
        while a.parent is not b.parent:
            a = a.parent
            b = b.parent
        if a.key != b.key:
            return a.key < b.key
        return self.chain() < other.chain()

    def moves(self):
        out = []
        node = self
        while node.parent is not None:
            out.append(node.move)
            node = node.parent
        out.reverse()
        return out


def _successors(trace, rg, pos, mid):
    """Deterministically ordered (move, npos, nmid, weight) expansions."""
    out = []
    if pos < len(trace):
        label = trace[pos]
        for a in rg.out[mid]:
            if a.label == label:
                out.append((Move(OP_MATCH, label, a.trail, a.src, a.tgt), pos + 1, a.tgt, 0))
        out.append((Move(OP_LHIDE, label, (), None, None), pos + 1, mid, 1))
    for a in rg.out[mid]:
        out.append((Move(OP_RHIDE, a.label, a.trail, a.src, a.tgt), pos, a.tgt, 1))
    return out


def reference_align_one_optimal(trace, rg, *, node_budget=DEFAULT_NODE_BUDGET, stats=None):
    """The straightforward A*: a Move per candidate and a node per push."""
    trace = tuple(trace)
    ftable = future_table(rg)
    rem = ftable.suffixes(trace)[0]
    rank = rg.net.table.rank()
    budget = _Budget(node_budget, None)
    hcache = {}

    def h(pos, mid):
        key = (pos, mid)
        v = hcache.get(key)
        if v is None:
            v = ftable.h(rem[pos], mid)
            hcache[key] = v
        return v

    rho_max = len(trace) + rg.min_visible_skips()
    root = ReferenceNode(None, None, 0, rg.m0, 0, 0)
    heap = [(h(0, rg.m0), 0, 0, 0, root)]
    settled = {}
    max_rho = 0
    pops = 0
    while heap:
        rho, _, _, _, node = heapq.heappop(heap)
        key = (node.pos, node.mid)
        prior = settled.get(key)
        if prior is not None and prior <= node.g:
            continue
        settled[key] = node.g
        pops += 1
        budget.spend()
        if rho > max_rho:
            max_rho = rho
        if node.pos == len(trace) and node.mid in rg.finals:
            if stats is not None:
                stats["pops"] = pops
                stats["max_rho_popped"] = max_rho
            return make_alignment(node.moves())
        for move, npos, nmid, w in _successors(trace, rg, node.pos, node.mid):
            ng = node.g + w
            prior = settled.get((npos, nmid))
            if prior is not None and prior <= ng:
                continue
            nrho = ng + h(npos, nmid)
            if nrho > rho_max:
                continue
            child = ReferenceNode(node, move, npos, nmid, ng, rank[move.label])
            heapq.heappush(heap, (nrho, -child.length, move.op, child.lrank, child))
    raise LogAlignError("no proper alignment exists for the trace")


def exactness_cases():
    """(trace, graph) pairs: loan, parallel tasks, random nets and their
    extended-label S-component graphs, whose arcs carry trails."""
    rng = random.Random(43)
    net, log = loan_pair()
    nets = [(net, log)]
    for k in range(1, 7):
        par = parallel_tasks_net(["T%d" % i for i in range(k)])
        nets.append((par, random_log(par, rng, n_traces=4, max_trace_len=10)))
    for seed in range(40):
        gnet = random_workflow_net(seed, max_visible=8)
        nets.append((gnet, random_log(gnet, rng, n_traces=4, max_trace_len=10)))
    cases = []
    for net, log in nets:
        try:
            rg = remove_tau(build_rg(net))
        except LogAlignError:
            continue
        # the empty trace aligns by model moves alone
        traces = [()] + [trace.labels for trace in log.traces]
        cases.extend((trace, rg) for trace in traces)
        try:
            components = decompose(net).components
        except DecompositionError:
            continue
        for comp in components:
            crg = remove_tau_extended(build_rg(comp.net))
            cases.extend((tuple(l for l in trace if l in comp.alphabet), crg)
                         for trace in traces)
    return cases


def test_one_optimal_matches_the_reference_search():
    # the search runs first on each fresh graph and builds no Arc rows,
    # which the reference then reads
    cases = exactness_cases()
    assert len(cases) >= 400
    with_trail = 0
    shared_entries = 0
    for trace, rg in cases:
        fresh = "succ" not in vars(rg)
        fast_stats, ref_stats = {}, {}
        got = align_one_optimal(trace, rg, stats=fast_stats)
        if fresh:
            assert "out" not in vars(rg) and "arcs" not in vars(rg)
            entries = [s for row in rg.succ for s in row]
            shared_entries += len({id(s) for s in entries}) < len(entries)
        expected = reference_align_one_optimal(trace, rg, stats=ref_stats)
        assert got.moves == expected.moves
        assert fast_stats == ref_stats
        with_trail += any(m.trail for m in got.moves)
    assert with_trail >= 20  # extended labels are exercised
    assert shared_entries >= 10


def with_rows_permuted(rg, rng):
    """A copy of ``rg`` whose successor index holds each of ``rg``'s rows,
    with the same entries, in a random order."""
    copy = ReachabilityGraph(rg.net, rg.markings, rg.m0, rg.finals, rg._rows, rg.reduced)
    rows = [list(row) for row in rg.succ]
    for row in rows:
        rng.shuffle(row)
    copy.succ = tuple(map(tuple, rows))
    return copy


def test_searches_do_not_depend_on_row_order():
    # loan, parallel tasks, 40 random nets and their extended-label component
    # graphs; every row of a copy's index is shuffled
    rng = random.Random(61)
    graphs = {}
    for trace, rg in exactness_cases():
        graphs.setdefault(id(rg), (rg, []))[1].append(trace)
    assert len(graphs) >= 100
    reordered = 0
    for rg, traces in graphs.values():
        shuffled = with_rows_permuted(rg, rng)
        reordered += shuffled.succ != rg.succ
        table, shuffled_table = future_table(rg), future_table(shuffled)
        assert shuffled_table.entries == table.entries
        for trace in traces:
            stats, shuffled_stats = {}, {}
            got = align_one_optimal(trace, shuffled, stats=shuffled_stats)
            assert got.moves == align_one_optimal(trace, rg, stats=stats).moves
            assert shuffled_stats == stats
            optima, shuffled_optima = (all_optimal_alignments(trace, rg),
                                       all_optimal_alignments(trace, shuffled))
            assert list(shuffled_optima.edges.items()) == list(optima.edges.items())
            assert shuffled_optima.n_optimal == optima.n_optimal
            rem = table.suffixes(trace)[0]
            for pos in range(len(trace) + 1):
                for mid in rng.sample(range(len(rg.markings)), min(len(rg.markings), 6)):
                    assert shuffled_table.h(rem[pos], mid) == table.h(rem[pos], mid)
    assert reordered >= 50


def test_labels_interned_after_the_index_rank_among_the_trace_labels():
    # the graph's index takes the label rank once; lhides of labels interned later
    # (texts that sort before and between the model's) rank by the table's
    # rank, as they did when every search read it
    net, log, rg = loan_setup()
    trace = log.traces[0].labels
    align_one_optimal(trace, rg)
    assert len(net.table.rank()) == len(net.table)
    extra = [net.table.intern(text) for text in ("AB", "0", "Ca")]
    rng = random.Random(53)
    for _ in range(40):
        noisy = list(rng.choice(log.traces).labels)
        for _ in range(3):
            noisy.insert(rng.randrange(len(noisy) + 1), rng.choice(extra))
        stats, ref_stats = {}, {}
        got = align_one_optimal(noisy, rg, stats=stats)
        assert got.moves == reference_align_one_optimal(noisy, rg, stats=ref_stats).moves
        assert stats == ref_stats
        optima = all_optimal_alignments(noisy, rg)
        assert optima.edges == reference_all_optimal(noisy, rg).edges


def test_searches_and_checks_build_no_arc_rows():
    # every reader of a graph's arcs on the align path walks its successor
    # index: the precompute, both searches, both propriety checks, the oracle
    net, log = loan_pair()
    trace = log.traces[0].labels
    for reduce in (remove_tau, remove_tau_extended):
        alignment = align_one_optimal(trace, reduce(build_rg(net)))
        readers = {
            "precompute": precompute_future_labels,
            "one optimal": lambda rg: align_one_optimal(trace, rg) == alignment,
            "all optimal": lambda rg: all_optimal_alignments(trace, rg).cost == alignment.cost,
            "is_proper": lambda rg: is_proper(alignment, trace, rg),
            "replays_on_model": lambda rg: replays_on_model(alignment, trace, rg),
            "oracle": lambda rg: brute_force_optimal_cost(trace, rg)[0] == alignment.cost,
            "enumeration": lambda rg: enumerate_optimal_move_sequences(trace, rg)[1],
        }
        for what, read in readers.items():
            rg = reduce(build_rg(net))
            assert read(rg), what
            assert "succ" in vars(rg), what
            assert "out" not in vars(rg) and "arcs" not in vars(rg), what


def test_one_optimal_and_the_reference_share_the_node_budget():
    cases = [case for case in exactness_cases() if len(case[0]) >= 4][:30]
    for trace, rg in cases:
        stats = {}
        reference_align_one_optimal(trace, rg, stats=stats)
        for budget in (1, stats["pops"] - 1):
            with pytest.raises(SearchBudgetError):
                reference_align_one_optimal(trace, rg, node_budget=budget)
            with pytest.raises(SearchBudgetError):
                align_one_optimal(trace, rg, node_budget=budget)
        assert align_one_optimal(trace, rg, node_budget=stats["pops"]).moves == \
            reference_align_one_optimal(trace, rg, node_budget=stats["pops"]).moves


def test_one_optimal_evaluates_h_once_per_position_and_class(monkeypatch):
    net = random_workflow_net(0, max_visible=8)  # loops: 54 markings in 15 classes
    rg = remove_tau(build_rg(net))
    table = future_table(rg)
    assert table.n_classes < len(rg.markings)
    log = random_log(net, random.Random(0), n_traces=6, max_trace_len=12)
    h = FutureLabelTable.h
    calls = []

    def counted(self, remaining, mid, *size):
        # a search keeps one remaining-count dict per trace position
        calls.append((id(remaining), self.classes[mid]))
        return h(self, remaining, mid, *size)

    monkeypatch.setattr(FutureLabelTable, "h", counted)
    fast_calls = reference_calls = 0
    for trace in log.traces:
        stats, ref_stats = {}, {}
        calls.clear()
        got = align_one_optimal(trace.labels, rg, stats=stats)
        assert len(calls) == len(set(calls))
        fast_calls += len(calls)
        calls.clear()
        expected = reference_align_one_optimal(trace.labels, rg, stats=ref_stats)
        reference_calls += len(calls)
        assert got.moves == expected.moves
        assert stats == ref_stats
    assert fast_calls < reference_calls


def reference_count(edges, root):
    """Number of root-to-leaf paths of the optimal edge DAG, by a depth-first
    walk that counts children before parents."""
    paths = {}
    stack = [root]
    while stack:
        key = stack[-1]
        if key in paths:
            stack.pop()
            continue
        nexts = edges.get(key, ())
        todo = [nkey for _, nkey in nexts if nkey not in paths]
        if todo:
            stack.extend(todo)
            continue
        stack.pop()
        paths[key] = 1 if not nexts else sum(paths[nkey] for _, nkey in nexts)
    return paths[root]


def reference_all_optimal(trace, rg, *, node_budget=DEFAULT_NODE_BUDGET):
    """The two-sweep search: a forward A* sweep, a backward Dijkstra sweep
    for every state's exact completion cost, and a separate count."""
    inf = float("inf")
    trace = tuple(trace)
    ftable = future_table(rg)
    classes = ftable.classes
    ncls = ftable.n_classes
    rem = ftable.suffixes(trace)[0]
    budget = _Budget(node_budget, None)
    hcache = {}

    goals = {(len(trace), f) for f in rg.finals}
    bound = len(trace) + rg.min_visible_skips()

    dist = {}
    heap = []

    def push_fwd(key, g):
        if g < dist.get(key, inf):
            pos, mid = key
            k = pos * ncls + classes[mid]
            hv = hcache.get(k)
            if hv is None:
                hv = hcache[k] = ftable.h(rem[pos], mid)
            f = g + hv
            if f <= bound:
                dist[key] = g
                heapq.heappush(heap, (f, g, key))

    root = (0, rg.m0)
    push_fwd(root, 0)
    while heap:
        f, g, key = heapq.heappop(heap)
        if g > dist.get(key, inf) or f > bound:
            continue
        budget.spend()
        if key in goals:
            bound = min(bound, g)
            continue
        pos, mid = key
        row = rg.out[mid]
        if pos < len(trace):
            label = trace[pos]
            for a in row:
                if a.label == label:
                    push_fwd((pos + 1, a.tgt), g)
            push_fwd((pos + 1, mid), g + 1)
        for a in row:
            push_fwd((pos, a.tgt), g + 1)

    cstar = min((dist[k] for k in goals if k in dist), default=None)
    if cstar is None:
        raise LogAlignError("no proper alignment exists for the trace")

    inn = [[] for _ in rg.markings]
    for a in rg.arcs:
        inn[a.tgt].append(a)
    db = {}
    bheap = []

    def push_bwd(key, d):
        if d < db.get(key, inf) and dist.get(key, inf) + d <= cstar:
            db[key] = d
            heapq.heappush(bheap, (d, key))

    for goal in goals:
        push_bwd(goal, 0)
    while bheap:
        d, key = heapq.heappop(bheap)
        if d > db.get(key, inf):
            continue
        budget.spend()
        pos, mid = key
        if pos > 0:
            push_bwd((pos - 1, mid), d + 1)
            for a in inn[mid]:
                if a.label == trace[pos - 1]:
                    push_bwd((pos - 1, a.src), d)
        for a in inn[mid]:
            push_bwd((pos, a.src), d + 1)

    rank = rg.net.table.rank()
    edges = {}
    for key in sorted(dist):
        if key in goals or dist[key] + db.get(key, inf) != cstar:
            continue
        nexts = []
        for move, npos, nmid, w in _successors(trace, rg, key[0], key[1]):
            nkey = (npos, nmid)
            if dist[key] + w + db.get(nkey, inf) == cstar:
                nexts.append((move, nkey))
        if nexts:
            nexts.sort(key=lambda mn: (mn[0].op, rank[mn[0].label], mn[0].trail, mn[1]))
            edges[key] = tuple(nexts)
    return ReferenceSet(cstar, edges, root, reference_count(edges, root))


def all_optimal_cases():
    """(trace, graph) pairs: loan with its log, a trace through its loop and
    the empty trace, then noisy traces on 200 random nets."""
    rng = random.Random(47)
    net, log, rg = loan_setup()
    cases = [(trace.labels, rg) for trace in log.traces]
    cases += [(ids(net, "CABEHIEFG"), rg), ((), rg)]
    for seed in range(200):
        gnet = random_workflow_net(seed, max_visible=8)
        try:
            grg = remove_tau(build_rg(gnet))
        except LogAlignError:
            continue
        glog = random_log(gnet, rng, n_traces=3, max_trace_len=8)
        cases.extend((trace.labels, grg) for trace in glog.traces)
    return cases


def counting_spends(monkeypatch):
    spends = []
    spend = _Budget.spend

    def counted(self):
        spends.append(None)
        return spend(self)

    monkeypatch.setattr(_Budget, "spend", counted)
    return spends


def test_all_optimal_matches_the_two_sweep_reference(monkeypatch):
    cases = all_optimal_cases()
    assert len(cases) >= 400
    spends = counting_spends(monkeypatch)
    several = 0
    for trace, rg in cases:
        spends.clear()
        expected = reference_all_optimal(trace, rg)
        ref_spends = len(spends)
        spends.clear()
        got = all_optimal_alignments(trace, rg)
        assert len(spends) == ref_spends
        assert got.cost == expected.cost
        assert got.root == expected.root
        assert got.n_optimal == expected.n_optimal  # counted before the edges are read
        edges = got.edges
        assert list(edges) == list(expected.edges)
        assert edges == expected.edges  # per-state move order included
        assert got.alignments(limit=5) == expected.alignments(limit=5)
        several += got.n_optimal > 1
    assert several >= 100  # ties between optima are exercised


def test_all_optimal_and_the_reference_share_the_node_budget(monkeypatch):
    spends = counting_spends(monkeypatch)
    cases = [case for case in all_optimal_cases() if len(case[0]) >= 4][:30]
    for trace, rg in cases:
        spends.clear()
        reference_all_optimal(trace, rg)
        needed = len(spends)
        for budget in (1, needed - 1):
            with pytest.raises(SearchBudgetError, match="node budget"):
                reference_all_optimal(trace, rg, node_budget=budget)
            with pytest.raises(SearchBudgetError, match="node budget"):
                all_optimal_alignments(trace, rg, node_budget=budget)
        got = all_optimal_alignments(trace, rg, node_budget=needed)
        expected = reference_all_optimal(trace, rg, node_budget=needed)
        assert (got.cost, got.edges, got.root, got.n_optimal) == expected


def continuing_sweep(trace, rg, *, node_budget=DEFAULT_NODE_BUDGET):
    """The all-optimal sweep that pops its heap to the end, skipping each
    entry above its bound instead of stopping at the first: the exact
    reference for the sweep that stops."""
    inf = float("inf")
    trace = tuple(trace)
    n = len(trace)
    ftable = future_table(rg)
    classes = ftable.classes
    ncls = ftable.n_classes
    rem = ftable.suffixes(trace)[0]
    lhides = _lhides(trace)
    budget = _Budget(node_budget, None)
    hcache = {}
    goals = {(n, f) for f in rg.finals}
    bound = n + rg.min_visible_skips()
    dist, tight, heap = {}, {}, []

    def push_fwd(key, g, step):
        d = dist.get(key, inf)
        if g < d:
            pos, mid = key
            k = pos * ncls + classes[mid]
            hv = hcache.get(k)
            if hv is None:
                hv = hcache[k] = ftable.h(rem[pos], mid)
            if g + hv <= bound:
                dist[key] = g
                tight[key] = [step]
                heapq.heappush(heap, (g + hv, g, key))
        elif g == d:
            tight[key].append(step)

    root = (0, rg.m0)
    push_fwd(root, 0, None)
    if root in tight:
        tight[root] = []
    while heap:
        f, g, key = heapq.heappop(heap)
        if g > dist[key] or f > bound:
            continue
        budget.spend()
        if key in goals:
            bound = g
            continue
        pos, mid = key
        if pos < n:
            for s in rg.succ[mid]:
                if s[2] == trace[pos]:
                    push_fwd((pos + 1, s[0]), g, (key, OP_MATCH, s))
            push_fwd((pos + 1, mid), g + 1, (key, OP_LHIDE, lhides[pos]))
        for s in rg.succ[mid]:
            push_fwd((pos, s[0]), g + 1, (key, OP_RHIDE, s))

    ends = [k for k in goals if dist.get(k) == bound]
    if not ends:
        raise LogAlignError("no proper alignment exists for the trace")
    edges = {}
    stack = list(ends)
    while stack:
        key = stack.pop()
        budget.spend()
        for pkey, op, succ in tight[key]:
            if pkey not in edges:
                edges[pkey] = []
                stack.append(pkey)
            edges[pkey].append((_move(op, succ, pkey[1]), key))
    rank = rg.net.table.rank()
    for nexts in edges.values():
        nexts.sort(key=lambda mn: (mn[0].op, rank[mn[0].label], mn[0].trail, mn[1]))
    edges = {key: tuple(nexts) for key, nexts in sorted(edges.items())}
    return ReferenceSet(bound, edges, root, reference_count(edges, root))


def test_all_optimal_matches_the_continuing_sweep(monkeypatch):
    cases = exactness_cases()
    assert len(cases) >= 400
    spends = counting_spends(monkeypatch)
    for trace, rg in cases:
        spends.clear()
        expected = continuing_sweep(trace, rg)
        ref_spends = len(spends)
        spends.clear()
        got = all_optimal_alignments(trace, rg)
        assert len(spends) == ref_spends
        assert got.cost == expected.cost
        assert got.n_optimal == expected.n_optimal  # counted before the edges are read
        assert list(got.edges.items()) == list(expected.edges.items())


def heap_only_align_one_optimal(trace, rg, *, node_budget=DEFAULT_NODE_BUDGET, deadline=None,
                                stats=None):
    """A* with every entry on one heap and ``h`` (through its per-position
    class cache) for every push: the exact reference for the search that
    parks entries per estimate and estimates set classes inline."""
    trace = tuple(trace)
    n = len(trace)
    ftable = future_table(rg)
    h = ftable.h
    classes = ftable.classes
    rem, sup = ftable.suffixes(trace)
    rows = rg.succ
    rank = rg.net.table.rank()
    lhides = _lhides(trace)
    finals = rg.finals
    budget = _Budget(node_budget, deadline)
    push = heapq.heappush
    settled: list[dict[int, int]] = [{} for _ in range(n + 1)]  # mid -> g
    hcache: list[dict[int, int]] = [{} for _ in range(n + 1)]  # class -> h

    rho_max = n + rg.min_visible_skips()
    h0 = hcache[0][classes[rg.m0]] = h(rem[0], rg.m0, n, sup[0])
    heap = [(h0, 0, OP_MATCH, 0, None, None, 0, rg.m0, 0)]
    max_rho = 0
    pops = 0
    while heap:
        rho, depth, op, lrank, parent, succ, pos, mid, g = heapq.heappop(heap)
        here = settled[pos]
        prior = here.get(mid)
        if prior is not None and prior <= g:
            continue
        here[mid] = g
        pops += 1
        budget.spend()
        if rho > max_rho:
            max_rho = rho
        node = _Node(parent, op, lrank, succ, mid)
        if pos == n and mid in finals:
            if stats is not None:
                stats["pops"] = pops
                stats["max_rho_popped"] = max_rho
            return make_alignment(node.moves())
        depth -= 1  # the children's -length
        ng = g + 1
        label = None  # no match at the end of the trace
        if pos < n:
            # the lhide, then per arc its match (at the next position) and rhide
            label = trace[pos]
            npos = pos + 1
            there = settled[npos]
            nhcache = hcache[npos]
            nrem = rem[npos]
            nsup = sup[npos]
            prior = there.get(mid)
            if prior is None or prior > ng:
                c = classes[mid]
                hv = nhcache.get(c)
                if hv is None:
                    hv = nhcache[c] = h(nrem, mid, n - npos, nsup)
                if ng + hv <= rho_max:
                    push(heap, (ng + hv, depth, OP_LHIDE, rank[label], node, lhides[pos], npos,
                                mid, ng))
        hcache_here = hcache[pos]
        for s in rows[mid]:
            nmid = s[0]
            c = classes[nmid]
            if s[2] == label:
                prior = there.get(nmid)
                if prior is None or prior > g:
                    hv = nhcache.get(c)
                    if hv is None:
                        hv = nhcache[c] = h(nrem, nmid, n - npos, nsup)
                    if g + hv <= rho_max:
                        push(heap, (g + hv, depth, OP_MATCH, s[3], node, s, npos, nmid, g))
            prior = here.get(nmid)
            if prior is not None and prior <= ng:
                continue
            hv = hcache_here.get(c)
            if hv is None:
                hv = hcache_here[c] = h(rem[pos], nmid, n - pos, sup[pos])
            if ng + hv <= rho_max:
                push(heap, (ng + hv, depth, OP_RHIDE, s[3], node, s, pos, nmid, ng))
    raise LogAlignError("no proper alignment exists for the trace")


def heap_only_all_optimal(trace, rg, *, node_budget=DEFAULT_NODE_BUDGET, deadline=None):
    """The all-optimal sweep with every entry on one heap, stopping at the
    first pop above its bound, and ``h`` for every push: the exact reference
    for the sweep that parks entries per estimate."""
    inf = float("inf")
    trace = tuple(trace)
    n = len(trace)
    ftable = future_table(rg)
    h = ftable.h
    classes = ftable.classes
    ncls = ftable.n_classes
    rem, sup = ftable.suffixes(trace)
    rows = rg.succ
    width = len(rows)
    lhides = _lhides(trace)
    budget = _Budget(node_budget, deadline)
    pop = heapq.heappop
    push = heapq.heappush
    hcache: dict[int, int] = {}  # pos * n_classes + class -> h

    goals = {n * width + f for f in rg.finals}
    bound = n + rg.min_visible_skips()

    # forward sweep: exact cheapest cost to every state on some optimal path,
    # and the steps (parent state, op, successor entry) that reach it at that
    # cost; a push keeps its state only if its estimate is within the bound
    dist: dict[int, int] = {}
    tight: dict[int, list] = {}
    heap: list = []
    root = rg.m0
    hv = hcache[classes[root]] = h(rem[0], root, n, sup[0])
    if hv <= bound:
        dist[root] = 0
        tight[root] = []  # the root has no step
        heap.append((hv, 0, root))
    while heap:
        f, g, state = pop(heap)
        if f > bound:
            break  # the heap pops by ascending f, and bound only falls
        if g > dist[state]:
            continue
        budget.spend()
        if state in goals:
            bound = g  # the first goal popped is a cheapest one
            continue
        pos, mid = divmod(state, width)
        row = rows[mid]
        ng = g + 1
        if pos < n:
            # the matches, then the lhide, all to the next position
            label = trace[pos]
            npos = pos + 1
            base = state - mid + width
            kbase = npos * ncls
            nrem = rem[npos]
            nsup = sup[npos]
            left = n - npos
            for s in row:
                if s[2] == label:
                    nmid = s[0]
                    nxt = base + nmid
                    d = dist.get(nxt, inf)
                    if g < d:
                        k = kbase + classes[nmid]
                        hv = hcache.get(k)
                        if hv is None:
                            hv = hcache[k] = h(nrem, nmid, left, nsup)
                        if g + hv <= bound:
                            dist[nxt] = g
                            tight[nxt] = [(state, OP_MATCH, s)]
                            push(heap, (g + hv, g, nxt))
                    elif g == d:
                        tight[nxt].append((state, OP_MATCH, s))
            nxt = base + mid
            d = dist.get(nxt, inf)
            if ng < d:
                k = kbase + classes[mid]
                hv = hcache.get(k)
                if hv is None:
                    hv = hcache[k] = h(nrem, mid, left, nsup)
                if ng + hv <= bound:
                    dist[nxt] = ng
                    tight[nxt] = [(state, OP_LHIDE, lhides[pos])]
                    push(heap, (ng + hv, ng, nxt))
            elif ng == d:
                tight[nxt].append((state, OP_LHIDE, lhides[pos]))
        # the rhides, at this position
        base = state - mid
        kbase = pos * ncls
        for s in row:
            nmid = s[0]
            nxt = base + nmid
            d = dist.get(nxt, inf)
            if ng < d:
                k = kbase + classes[nmid]
                hv = hcache.get(k)
                if hv is None:
                    hv = hcache[k] = h(rem[pos], nmid, n - pos, sup[pos])
                if ng + hv <= bound:
                    dist[nxt] = ng
                    tight[nxt] = [(state, OP_RHIDE, s)]
                    push(heap, (ng + hv, ng, nxt))
            elif ng == d:
                tight[nxt].append((state, OP_RHIDE, s))

    # closure over the steps from the cheapest goals, one spend per state:
    # every state on a cheapest path, with the steps into it
    ends = [state for state in goals if dist.get(state) == bound]
    if not ends:
        raise LogAlignError("no proper alignment exists for the trace")
    into = {state: tight[state] for state in ends}
    stack = list(ends)
    while stack:
        state = stack.pop()
        budget.spend()
        for parent, _, _ in into[state]:
            if parent not in into:
                into[parent] = tight[parent]
                stack.append(parent)

    # every move raises (dist, pos), so a state's parents come first in this
    # order; the root is the one state with no step into it
    stride = (n + 1) * width
    paths: dict[int, int] = {}
    for key in sorted([dist[state] * stride + state for state in into]):
        state = key % stride
        steps = into[state]
        paths[state] = sum([paths[parent] for parent, _, _ in steps]) if steps else 1

    # per parent state, in ascending order, its (Move, next state) pairs in
    # edge order (op, label rank, trail, next state)
    rank = rg.net.table.rank()
    children: dict[int, list] = {}
    for state, steps in into.items():
        for parent, op, succ in steps:
            children.setdefault(parent, []).append((op, rank[succ[2]], succ[1], state, succ))
    edges = {}
    for parent in sorted(children):
        src = parent % width
        edges[divmod(parent, width)] = tuple(
            (_move(op, succ, src), divmod(state, width))
            for op, _, _, state, succ in sorted(children[parent]))
    return ReferenceSet(bound, edges, (0, root), sum([paths[state] for state in ends]))


def recording_pushes_below_the_last_pop(monkeypatch):
    """Wrap heapq's push and pop; the returned list collects each pushed
    entry keyed below the last entry popped (``last[0]``, None before a
    search's first pop)."""
    below, last = [], [None]
    heappush, heappop = heapq.heappush, heapq.heappop

    def push(heap, entry):
        if last[0] is not None and entry[0] < last[0]:
            below.append(entry)
        heappush(heap, entry)

    def pop(heap):
        entry = heappop(heap)
        last[0] = entry[0]
        return entry

    monkeypatch.setattr(heapq, "heappush", push)
    monkeypatch.setattr(heapq, "heappop", pop)
    return below, last


def assert_searches_match_the_heap_only_searches(monkeypatch, cases):
    """Both searches against their heap-only references: equal moves, stats
    and spends, and for the sweep equal counts and edges.  Returns the
    number of entries the two searches pushed below the last entry popped,
    as a child estimated below the open estimate is."""
    spends = counting_spends(monkeypatch)
    below, last = recording_pushes_below_the_last_pop(monkeypatch)
    pushed_below = 0
    for trace, rg in cases:
        ref_stats, stats = {}, {}
        spends.clear()
        expected = heap_only_align_one_optimal(trace, rg, stats=ref_stats)
        ref_spends = len(spends)
        spends.clear()
        below.clear()
        last[0] = None
        got = align_one_optimal(trace, rg, stats=stats)
        pushed_below += len(below)
        assert got.moves == expected.moves
        assert stats == ref_stats
        assert len(spends) == ref_spends

        spends.clear()
        expected = heap_only_all_optimal(trace, rg)
        ref_spends = len(spends)
        spends.clear()
        below.clear()
        last[0] = None
        got = all_optimal_alignments(trace, rg)
        pushed_below += len(below)
        assert len(spends) == ref_spends
        assert (got.cost, got.n_optimal) == (expected.cost, expected.n_optimal)
        assert list(got.edges.items()) == list(expected.edges.items())
    return pushed_below


def test_searches_match_the_heap_only_searches(monkeypatch):
    cases = exactness_cases()
    assert len(cases) >= 400
    assert any(mask is not None for _, rg in cases for mask in future_table(rg).set_masks)
    assert_searches_match_the_heap_only_searches(monkeypatch, cases)


def test_searches_match_the_heap_only_searches_under_an_inconsistent_estimate(monkeypatch):
    # h halved on odd marking ids stays admissible but not consistent, so a
    # child can be estimated below the open estimate; with the set-class
    # masks cleared every estimate goes through h, as in the references
    h = FutureLabelTable.h

    def halved(self, remaining, mid, *rest):
        value = h(self, remaining, mid, *rest)
        return value // 2 if mid & 1 else value

    monkeypatch.setattr(FutureLabelTable, "h", halved)
    cases = exactness_cases()
    for _, rg in cases:
        table = future_table(rg)
        table.set_masks = [None] * len(table.set_masks)
    assert assert_searches_match_the_heap_only_searches(monkeypatch, cases) >= 1


def test_the_sweep_pops_no_entry_above_the_optimal_cost(monkeypatch):
    popped = []
    heappop = heapq.heappop

    def recording_heappop(heap):
        entry = heappop(heap)
        popped.append(entry)
        return entry

    monkeypatch.setattr(align_module.heapq, "heappop", recording_heappop)
    rng = random.Random(67)
    par = parallel_tasks_net(["T%d" % i for i in range(8)])
    rg = remove_tau(build_rg(par))
    par8 = [(trace.labels, rg)
            for trace in random_log(par, rng, n_traces=40, max_trace_len=10).traces]
    most = unopened = 0
    for trace, rg in par8 + exactness_cases():
        popped.clear()
        stats = {}
        cost = all_optimal_alignments(trace, rg, stats=stats).cost
        assert not [f for f, _, _ in popped if f > cost], trace
        most = max(most, len(popped))
        if rg is par8[0][1]:
            unopened += stats["unopened"]
    assert most >= 100  # the sweeps are long enough to overshoot
    assert unopened >= 1  # some entries above the optimal cost were parked and left


def test_first_optima_walked_from_the_tight_steps_match_the_edge_dag():
    # listed before the edges are read, then checked against the edges; all
    # of them where there are at most 2,000 (two cases have 53,352 and
    # 1,576,692), and the first two everywhere
    checked = several = 0
    for trace, rg in exactness_cases():
        optima = all_optimal_alignments(trace, rg)
        limits = (1, 2, None) if optima.n_optimal <= 2000 else (1, 2)
        listed = {k: optima.alignments(limit=k) for k in limits}
        if None in listed:
            expected = reference_alignments(optima.edges, optima.root)
            assert listed[None] == expected
            assert optima.alignments() == expected  # again, with every state sorted
            checked += 1
        else:
            expected = reference_alignments(optima.edges, optima.root, limit=2)
        assert listed[1] == expected[:1]
        assert listed[2] == expected[:2]
        several += len(listed[2]) == 2
    assert checked >= 400
    assert several >= 100

