import random

import pytest

from logalign import heuristic
from logalign.errors import LogAlignError, SearchBudgetError
from logalign.heuristic import (DEFAULT_ENTRY_CAP, FutureLabelTable, _Digits, _tarjan,
                                precompute_future_labels)
from logalign.logs import LabelTable
from logalign.petri import SystemNet
from logalign.reachability import Arc, _Rows, build_rg, remove_tau
from logalign.sampledata import loan_net, loan_pair

from gen import random_log, random_workflow_net
from graphs import graph_of_arcs
from nets import parallel_tasks_net, sequence_net


def reference_h(table, remaining, mid):
    """The estimate as a scan of every entry, without pruning or early stop."""
    best = None
    for counts, omega in table.entries[mid]:
        cdict = dict(counts)
        missing = 0
        for l, f in remaining.items():
            if l not in omega:
                d = f - cdict.get(l, 0)
                if d > 0:
                    missing += d
        surplus = 0
        for l, c in counts:
            d = c - remaining.get(l, 0)
            if d > 0:
                surplus += d
        v = missing + surplus
        if best is None or v < best:
            best = v
            if best == 0:
                break
    return best if best is not None else 0


def reference_entries(rg, entry_cap):
    """Per-marking entries merged with a dict and a sort per candidate and
    no stop at the cap; each set sorted by counts, then smaller omega, then
    omega's sorted labels, so entries of equal counts and incomparable
    omegas come in one order whatever the merge order."""
    n = len(rg.markings)
    comp = _tarjan(rg.succ)
    ncomp = max(comp) + 1 if n else 0
    sizes = [0] * ncomp
    for mid in range(n):
        sizes[comp[mid]] += 1
    internal = [set() for _ in range(ncomp)]
    crossing = [[] for _ in range(ncomp)]
    nontrivial = [size > 1 for size in sizes]
    for a in rg.arcs:
        if comp[a.tgt] == comp[a.src]:
            internal[comp[a.src]].add(a.label)
            nontrivial[comp[a.src]] = True
        else:
            crossing[comp[a.src]].append(a)
    all_labels = frozenset(a.label for a in rg.arcs)
    has_final = [False] * ncomp
    for f in rg.finals:
        has_final[comp[f]] = True
    futures = [()] * ncomp
    for c in range(ncomp):
        omega_base = frozenset(internal[c]) if nontrivial[c] else frozenset()
        acc = {}
        if has_final[c]:
            acc[((), omega_base)] = True
        for a in crossing[c]:
            for counts, omega in futures[comp[a.tgt]]:
                merged = dict(counts)
                merged[a.label] = merged.get(a.label, 0) + 1
                acc[(tuple(sorted(merged.items())), omega | omega_base)] = True
        futures[c] = (((), all_labels),) if len(acc) > entry_cap else \
            tuple(sorted(acc, key=lambda e: (e[0], len(e[1]), sorted(e[1]))))
    return tuple(futures[comp[mid]] for mid in range(n))


def reference_dominates(x, cdict, omega):
    """Whether the estimate of entry x = (total, counts, repeatable) is at
    most that of entry (cdict, omega) for every F."""
    _, xdict, xomega = x
    if not omega <= xomega:
        return False
    for l, c in xdict.items():
        if c > cdict.get(l, 0) or (c != cdict[l] and l not in xomega):
            return False
    return all(l in xomega or l in xdict for l in cdict)


def reference_prune(entries):
    """The entries no other entry dominates, by ascending total count, in
    scan form: the pruning of every raw entry of a set that the precompute
    replaced with its successors' kept entries."""
    order = sorted(((sum(c for _, c in counts), counts, omega) for counts, omega in entries),
                   key=lambda e: (e[0], -len(e[2])))
    kept = []
    for total, counts, omega in order:
        cdict = dict(counts)
        if not any(reference_dominates(x, cdict, omega) for x in kept):
            kept.append((total, cdict, omega))
    return tuple((total, omega, tuple((l, c, 1 if l in omega else 2) for l, c in cdict.items()))
                 for total, cdict, omega in kept)


def scan_groups(scan):
    """A scan tuple's entries as one set per (total, -|omega|) key, in scan
    order, after checking that the keys ascend: the order among entries of
    one key is free."""
    assert sorted(scan, key=lambda e: (e[0], -len(e[1]))) == list(scan)
    groups = {}
    for entry in scan:
        groups.setdefault((entry[0], -len(entry[1])), set()).add(entry)
    return list(groups.items())


def scan_of(table, mid):
    """The scan tuple of ``mid``'s class; a set class's decoded from its mask."""
    form = table._forms[table.classes[mid]]
    return table._digits.scan(((form, 0),)) if isinstance(form, int) else form


def sets_of(table):
    """Per marking, its class's unit-digit mask, or None unless it is a set
    class."""
    return [form if isinstance(form, int) else None
            for form in (table._forms[cls] for cls in table.classes)]


def assert_scans_match_reference(table):
    """Every class's scan tuple is the reference pruning of its raw entry
    tuple: the same entries of each (total, -|omega|) key, the keys in
    ascending order."""
    expected = {}
    for mid, own in enumerate(table.entries):
        if id(own) not in expected:
            expected[id(own)] = scan_groups(reference_prune(own))
        assert scan_groups(scan_of(table, mid)) == expected[id(own)], mid


def table_of_entries(rg, entries):
    """A table that gives every marking of ``rg`` the raw entries
    ``entries``, (sorted counts, repeatable) pairs of counts below 8,
    pruned as the precompute prunes a component's entries."""
    labels = sorted({l for counts, omega in entries for l in omega | {l for l, _ in counts}})
    digits = _Digits(labels, 4)
    pool = tuple((sum(c * digits.unit[l] for l, c in counts), sum(digits.bit[l] for l in omega))
                 for counts, omega in entries)
    return FutureLabelTable(rg, [0] * len(rg.markings), [pool], [heuristic._prune(pool, digits)],
                            digits)


def suffix_counts(trace):
    out = []
    for i in range(len(trace) + 1):
        rem = {}
        for label in trace[i:]:
            rem[label] = rem.get(label, 0) + 1
        out.append(rem)
    return out


def counts(table, word):
    out = {}
    for x in word:
        lid = table.lookup(x)
        out[lid] = out.get(lid, 0) + 1
    return out


def test_final_marking_future_is_empty_multiset():
    rg = remove_tau(build_rg(sequence_net(["A", "B"])))
    table = precompute_future_labels(rg)
    (final,) = rg.finals
    assert table.entries[final] == (((), frozenset()),)
    assert table.h({}, final) == 0


def test_loan_estimates_after_first_move():
    net = loan_net()
    rg = remove_tau(build_rg(net))
    ftable = precompute_future_labels(rg)
    after_b = next(a.tgt for a in rg.out[rg.m0] if net.table.text(a.label) == "B")
    # matched B on (B,D,C,E,G): remaining (C,D,E,G) is one skip away (A)
    assert ftable.h(counts(net.table, "CDEG"), after_b) == 1
    # hid B instead: the whole trace remains, two moves of mismatch
    assert ftable.h(counts(net.table, "BCDEG"), after_b) == 2
    # at the initial marking the B,D,C,E,G trace needs at least one skip
    assert ftable.h(counts(net.table, "BDCEG"), rg.m0) == 1


def test_cyclic_labels_absorb_repetitions():
    # single visible task in a redo loop: A can repeat any number of times
    table = LabelTable()
    net = SystemNet.build(
        ["i", "p", "q", "o"],
        [("t_in", None, ["i"], ["p"]),
         ("t_A", "A", ["p"], ["q"]),
         ("t_redo", None, ["q"], ["p"]),
         ("t_out", None, ["q"], ["o"])],
        table)
    rg = remove_tau(build_rg(net))
    ftable = precompute_future_labels(rg)
    a = table.lookup("A")
    # any number of pending A's is free, but a foreign label still costs
    assert ftable.h({a: 5}, rg.m0) == 0
    b = table.intern("B")
    assert ftable.h({a: 2, b: 1}, rg.m0) == 1


def test_estimate_never_exceeds_true_cost_on_loan():
    from logalign.oracle import brute_force_optimal_cost

    net = loan_net()
    rg = remove_tau(build_rg(net))
    ftable = precompute_future_labels(rg)
    for word in ["BDCEG", "BDAEFG", "CABEEG", "G", ""]:
        trace = tuple(net.table.lookup(x) for x in word)
        cost, _ = brute_force_optimal_cost(trace, rg)
        assert ftable.h(counts(net.table, word), rg.m0) <= cost


def assert_matches_reference(rg, traces, entry_cap=256):
    table = precompute_future_labels(rg, entry_cap)
    assert table.entries == reference_entries(rg, entry_cap)
    remaining = [rem for trace in traces for rem in suffix_counts(trace)]
    for mid in range(len(rg.markings)):
        for rem in remaining:
            expected = reference_h(table, rem, mid)
            assert table.h(rem, mid) == expected, (mid, rem)
            assert table.h(rem, mid, sum(rem.values())) == expected, (mid, rem)


def test_pruned_estimate_equals_full_scan_on_loan():
    net = loan_net()
    rg = remove_tau(build_rg(net))
    words = ["BDCEG", "BDAEFG", "CABEEG", "CABEHIEFG", "G", "", "ZZB"]
    table = net.table
    traces = [tuple(table.intern(x) for x in word) for word in words]
    for cap in (1, 3, 256):
        assert_matches_reference(rg, traces, cap)


def test_pruned_estimate_equals_full_scan_on_random_nets():
    rng = random.Random(41)
    checked = 0
    for seed in range(40):
        net = random_workflow_net(seed, max_visible=10)
        try:
            rg = remove_tau(build_rg(net))
        except LogAlignError:
            continue
        log = random_log(net, rng, n_traces=6, max_trace_len=12)
        traces = [t.labels for t in log.traces]
        assert_matches_reference(rg, traces, entry_cap=rng.choice((2, 8, 256)))
        checked += 1
    assert checked >= 30


def test_dominated_entry_is_dropped_without_changing_the_estimate():
    rg = remove_tau(build_rg(sequence_net(["A", "B"])))
    a, b, c, d = 1, 2, 3, 4
    x = (((a, 1),), frozenset({b}))
    y = (((a, 1), (b, 2)), frozenset())  # dominated by x and by u
    # none of these is dominated: each is strictly best for some multiset
    z = (((c, 1),), frozenset())
    w = (((c, 2),), frozenset())  # beats z on {c: 2}
    u = (((a, 1), (b, 2)), frozenset({d}))  # beats x on {d: 5}
    table = table_of_entries(rg, (x, y, z, w, u))
    scan = scan_of(table, rg.m0)
    assert [({l: c for l, c, _ in labels}, omega) for _, omega, labels in scan] == [
        ({a: 1}, frozenset({b})), ({c: 1}, frozenset()), ({c: 2}, frozenset()),
        ({a: 1, b: 2}, frozenset({d}))]
    for rem in ({}, {a: 1}, {b: 2}, {a: 1, b: 2}, {b: 5}, {c: 1}, {c: 2}, {d: 5},
                {a: 2, c: 3}, {a: 1, b: 2, d: 3}):
        assert table.h(rem, rg.m0) == reference_h(table, rem, rg.m0)


def test_estimate_walks_the_smaller_of_omega_and_remaining():
    rg = remove_tau(build_rg(sequence_net(["A", "B"])))
    a, b, c, d, e, f = 1, 2, 3, 4, 5, 6
    wide = (((a, 2), (f, 1)), frozenset({a, b, c, d, e}))  # omega above most F
    narrow = (((b, 1), (c, 3)), frozenset({a}))  # omega below most F
    plain = (((a, 1), (b, 1), (d, 2)), frozenset())
    remainders = ({}, {a: 1}, {a: 4}, {b: 2, f: 1}, {e: 3}, {f: 2},
                  {a: 1, b: 1, c: 1, d: 1, e: 1, f: 1}, {a: 3, c: 2, d: 2, e: 1, f: 4, 7: 2},
                  {b: 1, c: 3}, {a: 1, b: 1, d: 2}, {c: 5, d: 1})
    for chosen in ((wide,), (narrow,), (plain,), (wide, narrow), (narrow, plain),
                   (wide, narrow, plain)):
        table = table_of_entries(rg, chosen)
        for rem in remainders:
            expected = reference_h(table, rem, rg.m0)
            assert table.h(rem, rg.m0) == expected, (chosen, rem)
            assert table.h(rem, rg.m0, sum(rem.values())) == expected, (chosen, rem)


def test_component_past_a_small_cap_stays_degenerate():
    table = LabelTable()
    # a choice between four tasks: four future multisets at the initial marking
    net = SystemNet.build(
        ["i", "o"],
        [("t_%s" % x, x, ["i"], ["o"]) for x in "ABCD"],
        table)
    rg = remove_tau(build_rg(net))
    labels = frozenset(table.lookup(x) for x in "ABCD")
    assert len(precompute_future_labels(rg).entries[rg.m0]) == 4
    capped = precompute_future_labels(rg, entry_cap=2)
    assert capped.entries[rg.m0] == (((), labels),)
    assert capped.entries == reference_entries(rg, 2)
    z = table.intern("Z")
    for rem in ({}, {table.lookup("A"): 3}, {z: 2}, {z: 1, table.lookup("B"): 2}):
        expected = reference_h(capped, rem, rg.m0)
        assert capped.h(rem, rg.m0) == expected
        assert capped.h(rem, rg.m0, sum(rem.values())) == expected


def class_cases():
    """(graph, traces) pairs: loan, parallel tasks with k = 1..6 and random
    nets, each with the empty trace."""
    rng = random.Random(47)
    nets = [loan_pair()]
    for k in range(1, 7):
        par = parallel_tasks_net(["T%d" % i for i in range(k)])
        nets.append((par, random_log(par, rng, n_traces=4, max_trace_len=10)))
    for seed in range(40):
        net = random_workflow_net(seed, max_visible=10)
        nets.append((net, random_log(net, rng, n_traces=6, max_trace_len=12)))
    for net, log in nets:
        try:
            rg = remove_tau(build_rg(net))
        except LogAlignError:
            continue
        yield rg, [()] + [trace.labels for trace in log.traces]


def test_markings_of_one_class_share_every_estimate():
    shared = 0
    for rg, traces in class_cases():
        remaining = [rem for trace in traces for rem in suffix_counts(trace)]
        for cap in (2, DEFAULT_ENTRY_CAP):
            table = precompute_future_labels(rg, cap)
            assert len(table.classes) == len(rg.markings)
            assert set(table.classes) == set(range(table.n_classes))  # dense from 0
            members = {}
            for mid, cls in enumerate(table.classes):
                members.setdefault(cls, []).append(mid)
            for mids in members.values():
                assert all(table.entries[mid] is table.entries[mids[0]] for mid in mids)
                for rem in remaining:
                    assert len({table.h(rem, mid) for mid in mids}) == 1, (mids, rem)
                shared += len(mids) > 1
    assert shared >= 20  # classes do merge markings


def test_capped_components_share_one_class():
    spread = 0
    for rg, _ in class_cases():
        table = precompute_future_labels(rg, entry_cap=2)
        uncapped = precompute_future_labels(rg, entry_cap=10 ** 6).entries
        degenerate = (((), frozenset(a.label for a in rg.arcs)),)
        capped = [mid for mid, entries in enumerate(table.entries)
                  if entries == degenerate and uncapped[mid] != degenerate]
        assert len({table.classes[mid] for mid in capped}) <= 1
        comp = _tarjan(rg.succ)
        spread += len({comp[mid] for mid in capped}) > 1
    assert spread >= 5  # several capped components share the class


def test_steps_taken_by_several_components_leave_entries_unchanged():
    # components that cross into one successor component on one label bump
    # the same entries; every cap still gives the reference entries, and
    # the reference pruning of them
    sharing = 0
    for seed in range(60):
        net = random_workflow_net(seed, max_visible=10)
        try:
            rg = remove_tau(build_rg(net))
        except LogAlignError:
            continue
        comp = _tarjan(rg.succ)
        takers = {}
        for a in rg.arcs:
            if comp[a.src] != comp[a.tgt]:
                takers.setdefault((comp[a.tgt], a.label), set()).add(comp[a.src])
        sharing += any(len(srcs) > 1 for srcs in takers.values())
        for cap in (1, 2, 8, 256):
            table = precompute_future_labels(rg, cap)
            assert table.entries == reference_entries(rg, cap), (seed, cap)
            assert_scans_match_reference(table)
    assert sharing >= 20


def record_prune_inputs(monkeypatch):
    """The packed entry sequences the precompute prunes, in the order it
    prunes them (the initial marking's component comes last): a component's
    raw entry tuple itself, or a tuple of its candidates."""
    inputs = []
    prune = heuristic._prune

    def recording(entries, digits):
        inputs.append(entries)
        return prune(entries, digits)

    monkeypatch.setattr(heuristic, "_prune", recording)
    return inputs


def test_scans_equal_the_reference_pruning_of_the_raw_entries(monkeypatch):
    inputs = record_prune_inputs(monkeypatch)
    pruned = {}
    # loan, and the nets of the mixed and loops benchmark workloads
    for name, net in (("loan", loan_net()), ("mixed", random_workflow_net(12, max_visible=30)),
                      ("loops", random_workflow_net(11, max_visible=30))):
        rg = remove_tau(build_rg(net))
        del inputs[:]
        table = precompute_future_labels(rg)
        assert_scans_match_reference(table)
        raw = {id(own): len(own) for own in table.entries}
        pruned[name] = (sum(map(len, inputs)), sum(raw.values()))
        assert pruned[name][0] <= pruned[name][1]
    # mixed's components prune their successors' kept entries, far fewer
    # than their raw ones
    assert pruned["mixed"][0] * 5 < pruned["mixed"][1]


def test_scans_equal_the_reference_pruning_on_parallel_tasks(monkeypatch):
    inputs = record_prune_inputs(monkeypatch)
    rg = remove_tau(build_rg(parallel_tasks_net(["T%d" % i for i in range(8)])))
    table = precompute_future_labels(rg)
    assert_scans_match_reference(table)
    # one raw entry per component, so every component prunes its raw entries
    assert all(len(own) == 1 for own in table.entries)
    assert {id(own) for own in inputs} == {id(pool) for pool in table._raw}


def arc_graph(n, arcs, finals):
    """A tau-free graph of n markings given by (src, label, tgt) arcs, over
    the labels 1..9 of a net's table."""
    net = sequence_net(list("ABCDEFGHI"))
    return graph_of_arcs(net, range(n), 0, finals,
                         [Arc(src, label, (), tgt) for src, label, tgt in arcs], reduced=True)


def test_a_capped_successors_degenerate_entry_is_bumped(monkeypatch):
    inputs = record_prune_inputs(monkeypatch)
    # 1 chooses among four labels to the final 2, past a cap of 3; 3 reaches
    # 2 on label 5, or the final loop 4 on label 5, which dominates
    rg = arc_graph(5, [(0, 6, 1), (0, 7, 3),
                       (1, 1, 2), (1, 2, 2), (1, 3, 2), (1, 4, 2),
                       (3, 5, 2), (3, 5, 4), (4, 5, 4)], [2, 4])
    table = precompute_future_labels(rg, entry_cap=3)
    everything = frozenset(range(1, 8))
    assert table.entries[1] == (((), everything),)
    assert (((6, 1),), everything) in table.entries[0]
    assert len(table.entries[0]) == 3
    assert len(inputs[-1]) == 2  # the bumped degenerate entry and 3's kept one
    assert_scans_match_reference(table)
    assert table.entries == reference_entries(rg, 3)


def test_kept_entries_with_equal_keys_keep_the_candidate_order(monkeypatch):
    inputs = record_prune_inputs(monkeypatch)
    # 1 reaches the final loops 3 (on 3) and 2 (on 2) and the plain final 4,
    # all on label 1: ({1: 1}, {2}) and ({1: 1}, {3}) are kept and tie, and
    # both dominate ({1: 1}, {}); 0 reaches 1 on label 4.  The tie keeps the
    # candidates' order, which follows the arcs' order both ways round; the
    # decoded raw entries are sorted whatever the arcs' order.
    loops = [(1, 1, 3), (1, 1, 2)]
    for arcs in (loops, loops[::-1]):
        rg = arc_graph(5, [(0, 4, 1)] + arcs + [(1, 1, 4), (2, 2, 2), (3, 3, 3)], [2, 3, 4])
        del inputs[:]
        table = precompute_future_labels(rg)
        kept = [omega for _, omega, _ in scan_of(table, 0)]
        assert kept == [frozenset({tgt}) for _, _, tgt in arcs]
        assert [omega for _, omega in table.entries[0] if omega] == [{2}, {3}]
        assert table.entries == reference_entries(rg, DEFAULT_ENTRY_CAP)
        assert len(table.entries[0]) == 3 and len(inputs[-1]) == 2
        assert_scans_match_reference(table)


def test_a_final_component_with_repeatable_labels_is_a_candidate(monkeypatch):
    inputs = record_prune_inputs(monkeypatch)
    # the final loop 0 on label 5 leaves on 6 to 1, which reaches the plain
    # final 2 or the final loop 3 on label 7
    rg = arc_graph(4, [(0, 5, 0), (0, 6, 1), (1, 7, 2), (1, 7, 3), (3, 7, 3)], [0, 2, 3])
    table = precompute_future_labels(rg)
    assert ((), frozenset({5})) in table.entries[0]
    assert len(table.entries[0]) == 3 and len(inputs[-1]) == 2
    assert scan_of(table, 0)[0] == (0, frozenset({5}), ())
    assert_scans_match_reference(table)


def test_a_component_without_fewer_candidates_prunes_its_raw_entries(monkeypatch):
    inputs = record_prune_inputs(monkeypatch)
    # 0 reaches the plain finals 1 and 2 on label 1 and the final loop 3 on
    # label 1: three candidates for two raw entries, one dominated
    rg = arc_graph(4, [(0, 1, 1), (0, 1, 2), (0, 1, 3), (3, 2, 3)], [1, 2, 3])
    table = precompute_future_labels(rg)
    assert len(table.entries[0]) == 2
    assert inputs[-1] is table._raw[table.classes[0]]
    assert len(scan_of(table, 0)) == 1
    assert_scans_match_reference(table)
    # 0 reaches 1 on label 9, which reaches the final 2 on label 1 or 2:
    # two candidates for two raw entries
    del inputs[:]
    rg = arc_graph(3, [(0, 9, 1), (1, 1, 2), (1, 2, 2)], [2])
    table = precompute_future_labels(rg)
    assert len(table.entries[0]) == len(table.entries[1]) == 2
    assert inputs[-1] is table._raw[table.classes[0]]
    assert_scans_match_reference(table)


def test_a_chain_of_300_components_counts_one_label_past_a_digit_without_guard():
    # 0 reaches the loop 1 on label 2 and 2 on label 3; 1 reaches the chain
    # 4 -> 5 -> ... -> 302 -> the final 303, each marking its own component,
    # on label 1, and 2 reaches it through 3 on labels 2 and 1.  So 0 holds
    # x = ({1: 300, 3: 1}, {2}) and y = ({1: 300, 2: 1, 3: 1}, {}), which x
    # dominates.  A count of 300 has 9 bits: digits of 304.bit_length() = 9
    # bits would give it the guard bit, and the dominance test would keep y.
    arcs = [(0, 3, 1), (0, 3, 2), (1, 2, 1), (1, 1, 4), (2, 2, 3), (3, 1, 4)] + \
        [(k, 1, k + 1) for k in range(4, 303)]
    rg = arc_graph(304, arcs, [303])
    table = precompute_future_labels(rg)
    assert table._digits.width == 10
    x = (((1, 300), (3, 1)), frozenset({2}))
    y = (((1, 300), (2, 1), (3, 1)), frozenset())
    assert table.entries[0] == (y, x)
    assert scan_of(table, 0) == ((301, frozenset({2}), ((1, 300, 2), (3, 1, 2))),)
    assert table.entries == reference_entries(rg, DEFAULT_ENTRY_CAP)
    assert_scans_match_reference(table)
    for rem in ({}, {1: 299}, {1: 300, 3: 1}, {1: 301, 2: 4}, {1: 512}, {2: 1, 3: 1}, {4: 3}):
        for mid in (0, 1, 2, 3, 4, 150, 302, 303):
            expected = reference_h(table, rem, mid)
            assert table.h(rem, mid) == expected, (rem, mid)
            assert table.h(rem, mid, sum(rem.values())) == expected, (rem, mid)


def test_foreign_labels_interned_first_do_not_widen_the_entries():
    # a log's 2,000 labels interned before the net's: the digits number only
    # the graph's own labels, so the packed entries stay as small as without
    table = LabelTable()
    foreign = [table.intern("X%d" % i) for i in range(2000)]
    net = random_workflow_net(3, max_visible=10, table=table)
    rg = remove_tau(build_rg(net))
    ftable = precompute_future_labels(rg)
    labels = sorted({a.label for a in rg.arcs})
    assert min(labels) > max(foreign)
    digits = ftable._digits
    assert list(digits.labels) == labels
    width_bits = digits.width * len(labels)
    assert all(cnt.bit_length() <= width_bits and om.bit_length() <= len(labels)
               for pool in ftable._raw for cnt, om in pool)
    assert ftable.entries == reference_entries(rg, DEFAULT_ENTRY_CAP)
    assert_scans_match_reference(ftable)
    log = random_log(net, random.Random(53), n_traces=6, max_trace_len=12)
    traces = [t.labels for t in log.traces] + [tuple(foreign[:3] + labels[:2])]
    remaining = [rem for trace in traces for rem in suffix_counts(trace)]
    for mid in range(len(rg.markings)):
        for rem in remaining:
            assert ftable.h(rem, mid) == reference_h(ftable, rem, mid), (mid, rem)


def test_raw_sets_of_exactly_the_cap_and_one_more():
    # a choice among eight tasks: eight raw entries at the initial marking,
    # kept under a cap of 8 and degenerate under a cap of 7
    table = LabelTable()
    tasks = "ABCDEFGH"
    net = SystemNet.build(["i", "o"], [("t_%s" % x, x, ["i"], ["o"]) for x in tasks], table)
    rg = remove_tau(build_rg(net))
    ids = [table.lookup(x) for x in tasks]
    z = table.intern("Z")
    remainders = ({}, {ids[0]: 1}, {ids[0]: 2, ids[3]: 1}, {z: 2}, {z: 1, ids[7]: 1})
    for cap, kept in ((8, True), (7, False)):
        capped = precompute_future_labels(rg, entry_cap=cap)
        assert capped.entries == reference_entries(rg, cap)
        if kept:
            assert len(capped.entries[rg.m0]) == len(scan_of(capped, rg.m0)) == 8
        else:
            assert capped.entries[rg.m0] == (((), frozenset(ids)),)
        assert_scans_match_reference(capped)
        for rem in remainders:
            expected = reference_h(capped, rem, rg.m0)
            assert capped.h(rem, rg.m0) == expected, (cap, rem)
            assert capped.h(rem, rg.m0, sum(rem.values())) == expected, (cap, rem)


def test_the_precompute_stops_at_a_deadline_that_has_passed(monkeypatch):
    # 2,048 markings of eleven parallel tasks, each its own component
    rg = remove_tau(build_rg(parallel_tasks_net(["T%d" % i for i in range(11)])))
    assert len(rg.markings) == 2048
    with pytest.raises(SearchBudgetError, match="global deadline"):
        precompute_future_labels(rg, deadline=-1.0)
    # the clock is read on entry, after Tarjan and before component 1,024,
    # and the deadline passes between the first two reads
    reads = []

    def clock():
        reads.append(len(reads))
        return reads[-1]

    monkeypatch.setattr(heuristic.time, "monotonic", clock)
    with pytest.raises(SearchBudgetError):
        precompute_future_labels(rg, deadline=0.5)
    assert reads == [0, 1]
    del reads[:]
    table = precompute_future_labels(rg, deadline=5.0)
    assert reads == [0, 1, 2]
    assert table.entries == precompute_future_labels(rg).entries
    assert reads == [0, 1, 2]  # no deadline, no clock


def test_a_deadline_passed_while_the_index_is_built_stops_the_precompute(monkeypatch):
    # 256 markings of eight parallel tasks, each its own component: fewer
    # than the 1,024 between the loop's own reads
    rg = remove_tau(build_rg(parallel_tasks_net(["T%d" % i for i in range(8)])))
    assert len(set(_tarjan(rg.succ))) < 1024
    del rg.succ
    now = [0.0]
    monkeypatch.setattr(heuristic.time, "monotonic", lambda: now[0])
    successors = _Rows.successors

    def slow_successors(self, *args):
        now[0] += 1.0
        return successors(self, *args)

    monkeypatch.setattr(_Rows, "successors", slow_successors)
    with pytest.raises(SearchBudgetError, match="global deadline"):
        precompute_future_labels(rg, deadline=0.5)
    assert now == [1.0]  # the index was built once


def test_a_precompute_past_its_deadline_builds_no_successor_index():
    rg = remove_tau(build_rg(parallel_tasks_net(["T%d" % i for i in range(11)])))
    with pytest.raises(SearchBudgetError, match="global deadline"):
        precompute_future_labels(rg, deadline=-1.0)
    assert "succ" not in vars(rg)


def test_set_entries_give_the_reference_estimate_with_and_without_support():
    # every marking of loan, of parallel tasks with k = 1..8 and of random
    # nets; the traces repeat labels and hold labels the graph lacks
    rng = random.Random(53)
    nets = [loan_net()] + [parallel_tasks_net(["T%d" % i for i in range(k)])
                           for k in range(1, 9)]
    nets += [random_workflow_net(seed, max_visible=10) for seed in range(40)]
    fast = slow = repeated = foreign = 0
    for net in nets:
        try:
            rg = remove_tau(build_rg(net))
        except LogAlignError:
            continue
        table = precompute_future_labels(rg)
        outside = [net.table.intern("Z"), net.table.intern("Y")]
        labels = sorted({a.label for a in rg.arcs}) + outside
        traces = [()] + [tuple(rng.choice(labels) for _ in range(rng.randint(1, 12)))
                         for _ in range(6)]
        for trace in traces:
            repeated += len(set(trace)) < len(trace)
            foreign += any(l in outside for l in trace)
            supports = table.suffixes(trace)[1]
            for pos, rem in enumerate(suffix_counts(trace)):
                for mid in range(len(rg.markings)):
                    expected = reference_h(table, rem, mid)
                    assert table.h(rem, mid) == expected, (mid, rem)
                    assert table.h(rem, mid, len(trace) - pos, supports[pos]) == expected, \
                        (mid, rem)
        fast += sum(one is not None for one in sets_of(table))
        slow += sum(one is None for one in sets_of(table))
    assert fast >= 500 and slow >= 100  # both forms are exercised
    assert repeated >= 100 and foreign >= 100


def test_set_classes_are_never_decoded(monkeypatch):
    def scan(self, kept):
        raise AssertionError("a set class was decoded: %r" % (kept,))

    monkeypatch.setattr(_Digits, "scan", scan)
    rg = remove_tau(build_rg(parallel_tasks_net(["T%d" % i for i in range(8)])))
    table = precompute_future_labels(rg)
    assert all(one is not None for one in sets_of(table))
    final = next(iter(rg.finals))
    assert table.h({}, rg.m0) == 8 and table.h({}, final) == 0


def test_parallel_tasks_take_set_entries_at_every_marking():
    for k in range(1, 9):
        rg = remove_tau(build_rg(parallel_tasks_net(["T%d" % i for i in range(k)])))
        table = precompute_future_labels(rg)
        assert all(one is not None for one in sets_of(table))
        final = next(iter(rg.finals))
        assert sets_of(table)[final] == 0  # the empty final entry
        assert sets_of(table)[rg.m0].bit_count() == k


def test_a_count_above_one_or_an_omega_keeps_the_scan():
    rg = remove_tau(build_rg(sequence_net(["A", "B"])))
    a, b, c = 1, 2, 3
    ones = (((a, 1), (b, 1)), frozenset())
    two = (((a, 2),), frozenset())
    one_and_two = (((a, 1), (b, 2)), frozenset())
    with_omega = (((a, 1),), frozenset({b}))
    omega_alone = ((), frozenset({c}))
    only_a = (((a, 1),), frozenset())
    only_b = (((b, 1),), frozenset())
    remainders = ({}, {a: 1}, {a: 2}, {a: 3}, {b: 1}, {a: 2, b: 2}, {c: 1}, {a: 1, c: 4})
    for entries, fast in (((ones,), True), ((two,), False), ((one_and_two,), False),
                          ((with_omega,), False), ((omega_alone,), False),
                          ((only_a, only_b), False)):
        table = table_of_entries(rg, entries)
        assert (sets_of(table)[rg.m0] is not None) == fast, entries
        for rem in remainders:
            expected = reference_h(table, rem, rg.m0)
            assert table.h(rem, rg.m0) == expected, (entries, rem)
            assert table.h(rem, rg.m0, sum(rem.values())) == expected, (entries, rem)
