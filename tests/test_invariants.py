import random
from itertools import product

import numpy as np
import pytest

from logalign.errors import DecompositionError
from logalign import invariants
from logalign.invariants import decompose, minimal_place_invariants
from logalign.reachability import build_rg
from logalign.sampledata import loan_net

from gen import random_workflow_net
from matrices import incidence, marking_vector
from nets import and_blocks_net, parallel_merge_net, sequence_net


def brute_force_01_invariants(net):
    """All support-minimal 0/1 solutions of J*N = 0, by enumeration."""
    n = incidence(net)
    nplaces = len(net.places)
    sols = []
    for bits in product((0, 1), repeat=nplaces):
        j = np.array(bits, dtype=np.int64)
        if j.any() and not (j @ n).any():
            sols.append(frozenset(p for p in range(nplaces) if bits[p]))
    return {s for s in sols if not any(o < s for o in sols)}


def test_loan_has_the_four_expected_invariants():
    net = loan_net()
    invs = minimal_place_invariants(net)
    assert len(invs) == 4
    expected = {
        (1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1),
        (1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1),
        (1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1),
        (1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1),
    }
    assert {inv.weights for inv in invs} == expected
    # deterministic order: lexicographic by support
    supports = [inv.support for inv in invs]
    assert supports == sorted(supports)


def test_invariants_annihilate_incidence():
    net = loan_net()
    n = incidence(net)
    for inv in minimal_place_invariants(net):
        assert not (np.array(inv.weights) @ n).any()


def test_sequence_net_single_all_ones_invariant():
    net = sequence_net(["A", "B"])
    invs = minimal_place_invariants(net)
    assert len(invs) == 1
    assert invs[0].weights == (1, 1, 1)
    assert brute_force_01_invariants(net) == {frozenset(invs[0].support)}


def test_and_split_two_invariants():
    net = parallel_merge_net()
    invs = minimal_place_invariants(net)
    assert len(invs) == 2
    assert {frozenset(i.support) for i in invs} == brute_force_01_invariants(net)


def test_invariants_match_brute_force_on_random_nets():
    checked = 0
    for seed in range(40):
        net = random_workflow_net(seed, max_visible=5)
        if len(net.places) > 15:
            continue
        invs = minimal_place_invariants(net)
        assert {frozenset(i.support) for i in invs} == brute_force_01_invariants(net), \
            "seed %d" % seed
        checked += 1
    assert checked >= 8


def test_token_conservation_over_reachable_markings():
    net = loan_net()
    rg = build_rg(net)
    for inv in minimal_place_invariants(net):
        j = np.array(inv.weights)
        base = j @ marking_vector(net, net.m0)
        for m in rg.markings:
            assert j @ marking_vector(net, m) == base


def test_decompose_loan_four_components():
    net = loan_net()
    decomposition = decompose(net)
    assert len(decomposition.components) == 4
    parallel = []
    for comp in decomposition.components:
        names = sorted(net.table.text(l) for l in comp.alphabet)
        shared = [x for x in names if x in "EFGHI"]
        own = [x for x in names if x in "ABCD"]
        assert shared == ["E", "F", "G", "H", "I"]
        assert len(own) == 1
        parallel.append(own[0])
        # concurrency-free: every transition has one pre and one post place
        for t in range(len(comp.net.transitions)):
            assert bin(comp.net.pre[t]).count("1") == 1
            assert bin(comp.net.post[t]).count("1") == 1
    assert sorted(parallel) == ["A", "B", "C", "D"]


def test_decompose_cover_and_pre_post_components():
    net = loan_net()
    decomposition = decompose(net)
    covered_places = {p for p, v in decomposition.place_cover.items() if v}
    covered_transitions = {t for t, v in decomposition.transition_cover.items() if v}
    assert covered_places == set(range(len(net.places)))
    assert covered_transitions == set(range(len(net.transitions)))
    for t in range(len(net.transitions)):
        owners = set(decomposition.transition_cover[t])
        pre_cover = set().union(*(set(decomposition.place_cover[p])
                                  for p in net.preset_places(t)))
        post_cover = set().union(*(set(decomposition.place_cover[p])
                                   for p in net.postset_places(t)))
        assert pre_cover == owners == post_cover


def test_component_reachability_graphs_are_single_token():
    net = loan_net()
    for comp in decompose(net).components:
        rg = build_rg(comp.net)
        for m in rg.markings:
            assert bin(m).count("1") == 1


def test_decompose_concurrency_free_net_is_identity():
    net = sequence_net(["A", "B", "C"])
    decomposition = decompose(net)
    assert len(decomposition.components) == 1
    comp = decomposition.components[0]
    assert comp.net.places == net.places
    assert len(comp.net.transitions) == len(net.transitions)


def test_decompose_parallel_merge_two_components():
    net = parallel_merge_net()
    decomposition = decompose(net)
    assert len(decomposition.components) == 2
    alphabets = sorted(sorted(net.table.text(l) for l in c.alphabet)
                       for c in decomposition.components)
    assert alphabets == [["A", "C"], ["B", "C"]]


def test_decompose_rejects_duplicate_labels():
    from logalign.logs import LabelTable
    from logalign.petri import SystemNet

    table = LabelTable()
    net = SystemNet.build(
        ["i", "q", "o"],
        [("t1", "A", ["i"], ["q"]), ("t2", "A", ["q"], ["o"])],
        table)
    with pytest.raises(DecompositionError):
        decompose(net)


def test_decompose_rejects_a_component_that_is_not_a_workflow_net():
    # the only minimal invariant {s, a, f, b, c} is a valid 0/1 cover, but
    # its b/c cycle cannot be reached from s once x is projected away
    from logalign.petri import SystemNet, validate

    net = SystemNet.build(
        ["s", "a", "f", "b", "c", "x"],
        [("t1", "A", ["s"], ["a", "x"]), ("t2", "B", ["a"], ["f"]),
         ("t3", "C", ["b"], ["a"]), ("t4", "D", ["b"], ["c"]),
         ("t5", "E", ["c", "x"], ["b"])])
    assert validate(net).decomposable
    assert [inv.support for inv in minimal_place_invariants(net)] == [(0, 1, 2, 3, 4)]
    with pytest.raises(DecompositionError, match="not strongly connected"):
        decompose(net)


def test_decompose_random_nets_cover_and_single_token():
    for seed in range(20):
        net = random_workflow_net(seed, max_visible=6)
        decomposition = decompose(net)
        for comp in decomposition.components:
            rg = build_rg(comp.net)
            assert all(bin(m).count("1") == 1 for m in rg.markings), "seed %d" % seed


def reference_drop_support_dominated(rows):
    """The all-pairs scan: drop duplicates, rows whose support strictly
    contains another row's, and later rows with an equal support."""
    items = []
    seen = set()
    for eff, ann in rows:
        key = (tuple(eff), tuple(ann))
        if key not in seen:
            seen.add(key)
            items.append((eff, ann, frozenset(p for p, w in enumerate(ann) if w)))
    kept = []
    for i, (eff, ann, sup) in enumerate(items):
        dominated = False
        for j, (_, ann2, sup2) in enumerate(items):
            if i != j and sup2 < sup:
                dominated = True
                break
            if i > j and sup2 == sup:
                dominated = True
                break
        if not dominated:
            kept.append((eff, ann))
    return kept


def test_support_minimal_rows_match_the_all_pairs_scan(monkeypatch):
    drop = invariants._drop_support_dominated
    rounds = []

    def checked(rows):
        kept = drop(rows)
        assert [row[:2] for row in kept] == reference_drop_support_dominated(
            [row[:2] for row in rows])
        rounds.append(len(rows))
        return kept

    monkeypatch.setattr(invariants, "_drop_support_dominated", checked)
    nets = [random_workflow_net(seed) for seed in range(300)]
    nets += [and_blocks_net(k) for k in (3, 4, 5)]
    for net in nets:
        minimal_place_invariants(net)
    assert len(rounds) > 3000
    assert len(minimal_place_invariants(and_blocks_net(4))) == 3 ** 4


def test_support_minimal_rows_match_the_all_pairs_scan_on_random_rows():
    # the tableau of a structured net drops no row, so dominated and
    # repeated rows come from here
    rng = random.Random(17)
    dropped = 0
    for _ in range(500):
        rows = []
        for _ in range(rng.randint(1, 25)):
            ann = [rng.choice((0, 0, 1, 2)) for _ in range(6)]
            support = sum(1 << p for p, w in enumerate(ann) if w)
            rows.append(([rng.randint(-1, 1) for _ in range(3)], ann, support))
            if rng.random() < 0.2:
                rows.append(rng.choice(rows))
        kept = invariants._drop_support_dominated(rows)
        assert [row[:2] for row in kept] == reference_drop_support_dominated(
            [row[:2] for row in rows])
        dropped += len(rows) - len(kept)
    assert dropped > 1000
