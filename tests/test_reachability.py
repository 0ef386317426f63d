from collections import deque

import pytest

from logalign.errors import Not1BoundedError, StateSpaceCapError, TauReductionError
from logalign.logs import TAU, LabelTable
from logalign.petri import SystemNet
from logalign.reachability import (build_rg, min_visible_skips_net, remove_tau,
                                   remove_tau_extended)
from logalign.sampledata import loan_net

from gen import random_workflow_net
from nets import parallel_tasks_net, sequence_net, skippable_parallel_net


def marking_by_places(rg, names):
    want = sum(rg.net.place_bit(p) for p in names)
    for mid, m in enumerate(rg.markings):
        if m == want:
            return mid
    return None


def test_build_rg_loan_shape():
    rg = build_rg(loan_net())
    # start, 2^4 parallel lattice, p9..p12, end
    assert len(rg.markings) == 22
    assert marking_by_places(rg, ["p1", "p2", "p3", "p4"]) is not None
    assert marking_by_places(rg, ["p5", "p6", "p7", "p8"]) is not None
    first = rg.arcs[rg.out[rg.m0][0]]
    assert first.label == TAU
    assert rg.markings[first.tgt] == sum(rg.net.place_bit(p) for p in ["p1", "p2", "p3", "p4"])


def test_build_rg_linear_net():
    rg = build_rg(sequence_net(["A"]))
    assert len(rg.markings) == 2
    assert len(rg.arcs) == 1
    assert rg.finals == {1}


def test_build_rg_parallel_counts():
    for n in (2, 4, 6, 8):
        labels = ["T%d" % i for i in range(n)]
        rg = build_rg(parallel_tasks_net(labels))
        # brute-force subset count: i, o, and one marking per subset of done tasks
        assert len(rg.markings) == 2 ** n + 2


def test_build_rg_cap():
    with pytest.raises(StateSpaceCapError):
        build_rg(parallel_tasks_net(["T%d" % i for i in range(8)]), cap=10)


def test_build_rg_not_1_bounded():
    table = LabelTable()
    net = SystemNet.build(
        ["i", "q", "o"],
        [("t1", "A", ["i"], ["q"]), ("t2", "B", ["q"], ["q", "o"])],
        table)
    with pytest.raises(Not1BoundedError):
        build_rg(net)


def test_remove_tau_loan_matches_worked_reduction():
    rg = remove_tau(build_rg(loan_net()))
    net = rg.net
    # the all-pending and all-done lattice markings are gone
    assert marking_by_places(rg, ["p1", "p2", "p3", "p4"]) is None
    assert marking_by_places(rg, ["p5", "p6", "p7", "p8"]) is None
    # the arc ([p10], G, [end]) replaced the silent closing step
    p10 = marking_by_places(rg, ["p10"])
    end = marking_by_places(rg, ["end"])
    g = net.table.lookup("G")
    assert any(a.src == p10 and a.tgt == end and a.label == g for a in rg.arcs)
    # initial successors are now the four parallel tasks directly
    succ = sorted(net.table.text(rg.arcs[k].label) for k in rg.out[rg.m0])
    assert succ == ["A", "B", "C", "D"]
    assert all(a.label != TAU for a in rg.arcs)


def test_remove_tau_keeps_tau_free_graph():
    rg = remove_tau(build_rg(sequence_net(["A", "B"])))
    again = remove_tau(rg)
    assert again.markings == rg.markings
    assert again.arcs == rg.arcs
    assert again.finals == rg.finals


def test_remove_tau_idempotent_on_loan():
    rg = remove_tau(build_rg(loan_net()))
    again = remove_tau(rg)
    assert again.markings == rg.markings
    assert [a[:4] for a in again.arcs] == [a[:4] for a in rg.arcs]


def test_remove_tau_cycle_without_visible_exit():
    table = LabelTable()
    # the A branch enters a silent q1/q2 cycle that never reaches o (unsound)
    net = SystemNet.build(
        ["i", "q1", "q2", "o"],
        [("t1", "A", ["i"], ["q1"]),
         ("tau1", None, ["q1"], ["q2"]),
         ("tau2", None, ["q2"], ["q1"]),
         ("t2", "B", ["i"], ["o"])],
        table)
    with pytest.raises(TauReductionError):
        remove_tau(build_rg(net))


def test_remove_tau_silent_exit_to_final_is_fine():
    table = LabelTable()
    net = SystemNet.build(
        ["i", "q1", "q2", "o"],
        [("t1", "A", ["i"], ["q1"]),
         ("tau1", None, ["q1"], ["q2"]),
         ("tau2", None, ["q2"], ["q1"]),
         ("t2", None, ["q2"], ["o"])],
        table)
    reduced = remove_tau(build_rg(net))
    assert visible_language(reduced, 4) == {(table.lookup("A"),)}


def visible_language(rg, max_len):
    """All visible label sequences of length <= max_len that reach a final."""
    out = set()
    queue = deque([(rg.m0, ())])
    seen = {(rg.m0, ())}
    while queue:
        mid, word = queue.popleft()
        if mid in rg.finals:
            out.add(word)
        for k in rg.out[mid]:
            a = rg.arcs[k]
            if a.label == TAU:
                nxt = (a.tgt, word)
            elif len(word) < max_len:
                nxt = (a.tgt, word + (a.label,))
            else:
                continue
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return out


def test_remove_tau_preserves_visible_language_on_random_nets():
    for seed in range(40):
        net = random_workflow_net(seed, max_visible=6)
        rg = build_rg(net)
        try:
            reduced = remove_tau(rg)
        except TauReductionError:
            continue
        assert visible_language(rg, 8) == visible_language(reduced, 8), "seed %d" % seed
        assert all(a.label != TAU for a in reduced.arcs)
        # structural postconditions
        for mid in range(len(reduced.markings)):
            if mid != reduced.m0:
                assert reduced.inn[mid], "orphan marking"
            if mid not in reduced.finals:
                assert reduced.out[mid], "dead-end marking"


def test_remove_tau_extended_skippable_parallel():
    net = skippable_parallel_net()
    rg = remove_tau_extended(build_rg(net))
    d = net.table.lookup("D")
    end_arcs = [a for a in rg.arcs if a.label == d and rg.markings[a.tgt] in net.finals]
    assert len(end_arcs) == 2
    trails = sorted(tuple(net.transitions[t].name for t in a.trail) for a in end_arcs)
    assert trails == [("t_join",), ("t_skip",)]
    srcs = sorted(rg.marking_name(a.src) for a in end_arcs)
    assert srcs == ["[p1]", "[p3,p5]"]


def test_remove_tau_extended_no_tau_equals_plain():
    net = sequence_net(["A", "B", "C"])
    plain = remove_tau(build_rg(net))
    ext = remove_tau_extended(build_rg(net))
    assert [(a.src, a.label, a.trail, a.tgt) for a in plain.arcs] == \
        [(a.src, a.label, a.trail, a.tgt) for a in ext.arcs]


def test_remove_tau_extended_projects_to_plain_arcs_on_loan():
    net = loan_net()
    plain = remove_tau(build_rg(net))
    ext = remove_tau_extended(build_rg(net))
    # forgetting trails must reproduce the plain visible-step relation
    def stepset(rg):
        return {(rg.markings[a.src], a.label, rg.markings[a.tgt]) for a in rg.arcs}

    plain_steps = stepset(plain)
    ext_steps = stepset(ext)
    # every plain step is an extended step up to the transient-fold, and both
    # graphs accept the same visible language
    assert visible_language(plain, 10) == visible_language(ext, 10)
    assert all(a.label != TAU for a in ext.arcs)
    assert len(ext_steps) >= len(plain_steps)


def test_min_visible_skips():
    rg = remove_tau(build_rg(loan_net()))
    assert rg.min_visible_skips() == 6  # one parallel sweep, E, then F or G
    assert remove_tau(build_rg(sequence_net(["A"]))).min_visible_skips() == 1


def test_min_visible_skips_searched_once_per_graph():
    # the graph never changes, so later calls read the first result
    rg = remove_tau(build_rg(loan_net()))
    assert rg.min_visible_skips() == 6
    rg.out = ()  # a second search would fail on the emptied adjacency
    assert rg.min_visible_skips() == 6


def test_min_visible_skips_net_agrees_with_reduced_graph():
    # the net-level search is the fitness denominator whenever the graph hits
    # its state cap, so it must give the same value as the graph search
    nets = [loan_net(), skippable_parallel_net(), parallel_tasks_net(list("ABCD"))]
    nets += [random_workflow_net(seed, max_visible=8) for seed in range(40)]
    checked = 0
    for net in nets:
        try:
            expected = remove_tau(build_rg(net)).min_visible_skips()
        except TauReductionError:
            continue
        assert min_visible_skips_net(net) == expected
        checked += 1
    assert checked >= 30
    assert min_visible_skips_net(loan_net()) == 6


def test_min_visible_skips_net_cap():
    net = parallel_tasks_net(["T%d" % i for i in range(8)])
    with pytest.raises(StateSpaceCapError):
        min_visible_skips_net(net, cap=10)
