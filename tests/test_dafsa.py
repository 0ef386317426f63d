import random

from logalign.dafsa import build_dafsa, common_affixes, language
from logalign.logs import LabelTable, log_from_texts
from logalign.sampledata import loan_log

from gen import random_log, random_workflow_net


def texts(log, seqs):
    return {tuple(log.table.text(l) for l in s) for s in seqs}


def brute_force_minimal_sizes(words):
    """Minimize the trie of the given words by right-language classes."""
    words = set(words)
    prefixes = {w[:i] for w in words for i in range(len(w) + 1)}
    residual = {}
    for p in sorted(prefixes, key=len, reverse=True):
        rl = frozenset(w[len(p):] for w in words if w[:len(p)] == p)
        residual[p] = rl
    classes = set(residual.values())
    arcs = set()
    for p in prefixes:
        for w in words:
            if w[:len(p)] == p and len(w) > len(p):
                arcs.add((residual[p], w[len(p)], residual[p + (w[len(p)],)]))
    return len(classes), len(arcs)


def test_running_example_compression():
    log = loan_log()
    dafsa = build_dafsa(log)
    assert language(dafsa) == {t.labels for t in log.traces}
    # 26 events compressed into 15 arcs over 13 states: the shared prefixes
    # of the trie, with every pair of states that accept the same suffixes
    # merged, which is exactly the minimal automaton
    assert sum(t.frequency * len(t.labels) for t in log.traces) == 26
    assert (len(dafsa), len(dafsa.arcs)) == brute_force_minimal_sizes(
        {t.labels for t in log.traces}) == (13, 15)
    # no loan trace is a prefix of another, so all end in the one state without arcs
    assert len(dafsa.finals) == 1


def test_single_trace_chain():
    log = log_from_texts([["A", "B"]])
    dafsa = build_dafsa(log)
    assert len(dafsa) == 3
    assert len(dafsa.arcs) == 2


def test_shared_suffix_two_traces():
    # the two C arcs merge into one, and so do the states they are read from
    log = log_from_texts([["A", "C"], ["B", "C"]])
    dafsa = build_dafsa(log)
    assert (len(dafsa), len(dafsa.arcs)) == brute_force_minimal_sizes(
        {t.labels for t in log.traces}) == (3, 3)
    assert language(dafsa) == {t.labels for t in log.traces}


def test_empty_log_and_empty_trace():
    empty = build_dafsa(log_from_texts([]))
    assert language(empty) == frozenset()
    assert empty.initial not in empty.finals
    with_empty = build_dafsa(log_from_texts([[]]))
    assert language(with_empty) == {()}


def test_prefix_pair():
    log = log_from_texts([["A"], ["A", "B"]])
    dafsa = build_dafsa(log)
    assert language(dafsa) == {t.labels for t in log.traces}


def test_prefix_trace_inside_folded_suffix():
    # one trace is a prefix of another and ends inside a shared suffix chain
    log = log_from_texts([["A", "X", "Y"], ["A", "X", "Y", "Z"], ["B", "X", "Y"]])
    dafsa = build_dafsa(log)
    assert language(dafsa) == {t.labels for t in log.traces}


def test_common_affixes_running_example():
    log = loan_log()
    dafsa = build_dafsa(log)
    prefixes, suffixes = common_affixes(dafsa)
    t = log.table
    names = lambda seqs: {tuple(t.text(l) for l in s) for s in seqs}
    assert names(prefixes) == {tuple("BD"), tuple("CABE")}
    assert names(suffixes) == {("G",), tuple("EFG")}


def test_common_affixes_chain_empty():
    dafsa = build_dafsa(log_from_texts([["A", "B", "C"]]))
    prefixes, suffixes = common_affixes(dafsa)
    assert prefixes == frozenset() and suffixes == frozenset()


def test_common_affixes_branching_prefix():
    log = log_from_texts([["A", "C"], ["A", "D"]])
    prefixes, _ = common_affixes(build_dafsa(log))
    assert texts(log, prefixes) == {("A",)}


def test_common_affixes_long_traces():
    # 1,500-event traces branching at the end and at the front
    body = ["E%d" % i for i in range(1500)]
    log = log_from_texts([body + ["X"], body + ["Y"]])
    prefixes, suffixes = common_affixes(build_dafsa(log))
    assert texts(log, prefixes) == {tuple(body)} and suffixes == frozenset()
    log = log_from_texts([["X"] + body, ["Y"] + body])
    prefixes, suffixes = common_affixes(build_dafsa(log))
    assert prefixes == frozenset() and texts(log, suffixes) == {tuple(body)}


def test_common_affixes_on_random_logs():
    # every path to a state is a prefix of some trace, every path from it a suffix
    rng = random.Random(3)
    for seed in range(15):
        net = random_workflow_net(seed, max_visible=5)
        log = random_log(net, rng, n_traces=8, max_trace_len=10)
        dafsa = build_dafsa(log)
        prefixes, suffixes = set(), set()
        for word in language(dafsa):
            path = [dafsa.initial]
            for label in word:
                path.append(dafsa.out[path[-1]][label])
            for i, state in enumerate(path):
                if dafsa.out_degree[state] > 1 and i:
                    prefixes.add(word[:i])
                if dafsa.in_degree[state] > 1 and i < len(word):
                    suffixes.add(word[i:])
        assert common_affixes(dafsa) == (prefixes, suffixes), "seed %d" % seed


def test_language_property_on_random_logs():
    rng = random.Random(0)
    for seed in range(30):
        net = random_workflow_net(seed, max_visible=6)
        log = random_log(net, rng, n_traces=8, max_trace_len=12)
        dafsa = build_dafsa(log)
        assert language(dafsa) == {t.labels for t in log.traces}, "seed %d" % seed
        assert len(dafsa.arcs) <= sum(len(t.labels) for t in log.traces)
    # one 1,500-event trace next to a short one
    log = log_from_texts([["E%d" % i for i in range(1500)], ["E0", "E1499"]])
    dafsa = build_dafsa(log)
    assert language(dafsa) == {t.labels for t in log.traces}
    assert (len(dafsa), len(dafsa.arcs)) == (1501, 1501)


def test_compression_between_minimal_and_trie():
    rng = random.Random(1)
    for seed in range(20):
        net = random_workflow_net(seed, max_visible=5)
        log = random_log(net, rng, n_traces=6, max_trace_len=8)
        dafsa = build_dafsa(log)
        assert (len(dafsa), len(dafsa.arcs)) == brute_force_minimal_sizes(
            {t.labels for t in log.traces}), "seed %d" % seed


def test_determinism_and_degrees():
    log = loan_log()
    dafsa = build_dafsa(log)
    for state in range(len(dafsa)):
        labels = [l for (s, l, t) in dafsa.arcs if s == state]
        assert len(labels) == len(set(labels))
        assert dafsa.out_degree[state] == len(labels)


def test_numbering_ignores_label_ids_and_trace_order():
    rng = random.Random(2)
    for seed in range(10):
        net = random_workflow_net(seed, max_visible=5)
        log = random_log(net, rng, n_traces=6, max_trace_len=8)
        words = [log.texts(t) for t in log.traces]
        # the same traces over label ids interned in the opposite order
        table = LabelTable()
        for text in sorted({x for w in words for x in w}, reverse=True):
            table.intern(text)
        other = log_from_texts(reversed(words), table)
        shapes = []
        for lg in (log, other):
            dafsa = build_dafsa(lg)
            shapes.append(([[(lg.table.text(l), t) for l, t in row.items()] for row in dafsa.out],
                           dafsa.finals))
        assert shapes[0] == shapes[1], "seed %d" % seed


def test_every_state_on_an_accepting_path():
    rng = random.Random(5)
    for seed in range(10):
        net = random_workflow_net(seed, max_visible=5)
        log = random_log(net, rng, n_traces=5, max_trace_len=7)
        dafsa = build_dafsa(log)
        # forward reachability holds by construction; check coreachability
        reaches_final = set(dafsa.finals)
        changed = True
        while changed:
            changed = False
            for src, _, tgt in dafsa.arcs:
                if tgt in reaches_final and src not in reaches_final:
                    reaches_final.add(src)
                    changed = True
        assert set(range(len(dafsa))) <= reaches_final or not dafsa.finals
