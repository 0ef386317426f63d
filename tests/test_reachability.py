import heapq
import tracemalloc
from collections import deque

import pytest

from logalign.errors import (LogAlignError, Not1BoundedError, StateSpaceCapError,
                             TauReductionError)
from logalign.logs import TAU, LabelTable
from logalign.petri import SystemNet
from logalign.reachability import (DEFAULT_MARKING_CAP, Arc, build_rg, min_visible_skips_net,
                                   remove_tau, remove_tau_extended)
from logalign.sampledata import loan_net

from gen import random_workflow_net
from graphs import graph_of_arcs
from nets import parallel_merge_net, parallel_tasks_net, sequence_net, skippable_parallel_net


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
    first = rg.out[rg.m0][0]
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
    succ = sorted(net.table.text(a.label) for a in rg.out[rg.m0])
    assert succ == ["A", "B", "C", "D"]
    assert all(a.label != TAU for a in rg.arcs)


def test_remove_tau_keeps_tau_free_graph():
    raw = build_rg(sequence_net(["A", "B"]))
    rg = remove_tau(raw)
    assert rg.markings == raw.markings
    assert [a[:4] for a in rg.arcs] == [a[:4] for a in raw.arcs]
    assert rg.finals == raw.finals
    assert_fixed_point(rg, False, "sequence")


def test_remove_tau_idempotent_on_loan():
    # nothing reduces a graph twice; the reference reduction of a reduced
    # graph is that graph
    for extended, reduce in ((False, remove_tau), (True, remove_tau_extended)):
        assert_fixed_point(reduce(build_rg(loan_net())), extended, "loan")


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
        for a in rg.out[mid]:
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
        entered = {a.tgt for a in reduced.arcs}
        for mid in range(len(reduced.markings)):
            if mid != reduced.m0:
                assert mid in entered, "orphan marking"
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


# -- exactness of the graph code against the straightforward versions ---------


def reference_build_rg(net, cap=DEFAULT_MARKING_CAP):
    """The expansion with a method call per enabled test and the index of
    every arc left to the graph's constructor."""
    index = {net.m0: 0}
    markings = [net.m0]
    arcs: list[Arc] = []
    queue = deque([0])
    ntrans = len(net.transitions)
    while queue:
        mid = queue.popleft()
        m = markings[mid]
        for t in range(ntrans):
            if not net.enabled(m, t):
                continue
            if net.fire_overflows(m, t):
                raise Not1BoundedError(
                    "firing %s at %s exceeds one token on a place"
                    % (net.transitions[t].name, net.marking_name(m)))
            m2 = (m & ~net.pre[t]) | net.post[t]
            tid = index.get(m2)
            if tid is None:
                tid = len(markings)
                if tid >= cap:
                    raise StateSpaceCapError("marking cap %d exceeded" % cap)
                index[m2] = tid
                markings.append(m2)
                queue.append(tid)
            label = net.transitions[t].label
            arcs.append(Arc(mid, label, (t,) if label == TAU else (), tid))
    finals = frozenset(index[f] for f in net.finals if f in index)
    return graph_of_arcs(net, markings, 0, finals, arcs)


def reference_reduce(rg, extended):
    """Tau removal with arc sets for every marking, full rescans in prune,
    a signature of every marking on each merge pass and one final sort."""
    net = rg.net
    n = len(rg.markings)
    # working arc = (src, label, trail, tgt); plain removal drops the raw tau
    # arcs' trails, extended removal keeps them so extended labels stay traceable
    out: list[set] = [set() for _ in range(n)]
    inn: list[set] = [set() for _ in range(n)]
    transient = [False] * n

    def add(a):
        out[a[0]].add(a)
        inn[a[3]].add(a)

    def discard(a):
        out[a[0]].discard(a)
        inn[a[3]].discard(a)

    for a in rg.arcs:
        add((a.src, a.label, a.trail if extended or a.label != TAU else (), a.tgt))
    for mid in range(n):
        if out[mid] and all(a[1] == TAU for a in out[mid]):
            transient[mid] = True

    finals = set(rg.finals)
    alive = [True] * n

    # forward replacement: incoming tau arcs of each non-final marking are
    # re-sourced onto the visible successors found along tau chains
    for mid in range(n):
        if mid in finals:
            continue
        for a in sorted(inn[mid]):
            if a[1] != TAU:
                continue
            m1, _, trail_a, _ = a
            additions = []
            seen = {mid}
            stack = [(mid, ())]
            while stack:
                mt, acc = stack.pop()
                for b in sorted(out[mt]):
                    _, l, trail_b, m2 = b
                    if b == a:
                        continue
                    if l != TAU or m2 in finals:
                        additions.append((m1, l, trail_a + acc + trail_b, m2))
                    elif m2 not in seen:
                        seen.add(m2)
                        stack.append((m2, acc + trail_b))
            if not additions:
                raise TauReductionError(
                    "no visible continuation after tau into %s (tau cycle or dead end)"
                    % rg.marking_name(mid))
            discard(a)
            for new in additions:
                add(new)

    def prune():
        changed = True
        while changed:
            changed = False
            for mid in range(n):
                if not alive[mid]:
                    continue
                dead = (not inn[mid] and mid != rg.m0) or (not out[mid] and mid not in finals)
                if dead:
                    alive[mid] = False
                    changed = True
                    for a in list(out[mid]) + list(inn[mid]):
                        discard(a)

    prune()

    # backwards replacement: remaining tau arcs all target final markings;
    # their sources' visible predecessors gain direct arcs into the final
    while True:
        taus = sorted(a for f in finals for a in inn[f] if a[1] == TAU)
        if not taus:
            break
        progressed = False
        for a in taus:
            m1, _, trail, f = a
            if any(b[1] == TAU for b in inn[m1]):
                continue  # resolve chains source-first
            if m1 == rg.m0:
                finals.add(rg.m0)  # the model can reach a final silently
            for b in sorted(inn[m1]):
                m2, l, trail2, _ = b
                add((m2, l, trail2 + trail, f))
            discard(a)
            progressed = True
        if not progressed:
            raise TauReductionError("tau cycle through final markings")

    prune()

    # fold markings whose only original exits were silent into an identically
    # behaving survivor, so chains like AND-join -> tau -> join-place collapse
    merged = True
    while merged:
        merged = False
        sig: dict = {}
        for mid in range(n):
            if alive[mid]:
                sig[mid] = (mid in finals, frozenset((l, tr, tgt) for _, l, tr, tgt in out[mid]))
        for s in range(n):
            if not alive[s] or not transient[s] or s == rg.m0 or s in finals:
                continue
            if any(tgt == s for _, tr, tgt in sig[s][1]):
                continue
            matches = [m for m in sig if m != s and sig[m] == sig[s]]
            if not matches:
                continue
            rep = min(matches, key=lambda m: (transient[m], m))
            for a in sorted(inn[s]):
                discard(a)
                add((a[0], a[1], a[2], rep))
            for a in list(out[s]):
                discard(a)
            alive[s] = False
            merged = True
            break

    prune()

    if not rg.finals:
        raise TauReductionError("no final marking reachable from the initial marking")
    if not alive[rg.m0]:
        raise TauReductionError("initial marking has no behavior after reduction")
    live_finals = {f for f in finals if alive[f]}
    if not live_finals:
        raise TauReductionError("no final marking survives reduction")

    remap = {}
    new_markings = []
    for mid in range(n):
        if alive[mid]:
            remap[mid] = len(new_markings)
            new_markings.append(rg.markings[mid])
    rank = net.table.rank()
    flat = sorted(
        {(remap[a[0]], a[1], a[2], remap[a[3]]) for mid in range(n) if alive[mid] for a in out[mid]},
        key=lambda a: (a[0], rank[a[1]], a[2], a[3]))
    new_arcs = tuple(Arc(s, l, tr, t) for s, l, tr, t in flat)
    assert all(a.label != TAU for a in new_arcs)
    return graph_of_arcs(net, new_markings, remap[rg.m0], [remap[f] for f in live_finals],
                         new_arcs, reduced=True)


def eager_reduce(rg, extended):
    """Tau removal on ``Arc`` rows, reading ``rg.out`` and ``rg.arcs``: arc
    sets for hot markings, in and out arc counters for cold ones, and every
    surviving marking's row built and sorted on the spot.  The reference for
    the rows a reduced graph builds on first read."""
    net = rg.net
    n = len(rg.markings)
    raw_out = rg.out
    raw_inn: list[list[Arc]] = [[] for _ in range(n)]
    for a in rg.arcs:
        raw_inn[a[3]].append(a)
    m0 = rg.m0
    finals = set(rg.finals)

    def work(a):
        # plain removal drops the silent transitions' trails
        if extended or a[1] != TAU:
            return a
        return (a[0], TAU, (), a[3])

    hot = set(finals)
    for a in rg.arcs:
        if a[1] == TAU:
            hot.add(a[0])
            hot.add(a[3])
    if shares_a_visible_label(net):
        # raw arcs equal in working form collapse into one; keeping their
        # ends hot keeps the cold counters exact (a net without shared
        # visible labels has no such arcs in its built or its reduced graph)
        for u in range(n):
            row = raw_out[u]
            if len({work(a) for a in row}) < len(row):
                hot.add(u)
                hot.update(a[3] for a in row)

    alive = [True] * n
    out: list = [None] * n  # arc sets of hot markings, None while cold
    inn: list = [None] * n
    nout = [len(x) for x in raw_out]  # arc counts of cold markings
    nin = [len(x) for x in raw_inn]
    touched = list(range(n))  # markings prune() must look at

    def promote(u):
        out[u] = {work(a) for a in raw_out[u] if alive[a[3]]}
        inn[u] = {work(a) for a in raw_inn[u] if alive[a[0]]}

    def add(a):
        if out[a[0]] is None:
            promote(a[0])
        if out[a[3]] is None:
            promote(a[3])
        out[a[0]].add(a)
        inn[a[3]].add(a)

    def discard(a):
        u, v = a[0], a[3]
        if out[u] is None:
            nout[u] -= 1
        else:
            out[u].discard(a)
        if inn[v] is None:
            nin[v] -= 1
        else:
            inn[v].discard(a)
        touched.append(u)
        touched.append(v)

    def kill(u):
        alive[u] = False
        if out[u] is not None:
            for a in list(out[u]) + list(inn[u]):
                discard(a)
            return
        for a in raw_out[u]:
            if alive[a[3]]:
                discard(work(a))
        for a in raw_inn[u]:
            if alive[a[0]]:
                discard(work(a))

    def prune():
        # the greatest set of markings that have an incoming arc (or are m0)
        # and an outgoing arc (or are final) is unique, so any order finds it
        while touched:
            u = touched.pop()
            if not alive[u]:
                continue
            if out[u] is None:
                no_in, no_out = nin[u] == 0, nout[u] == 0
            else:
                no_in, no_out = not inn[u], not out[u]
            if (no_in and u != m0) or (no_out and u not in finals):
                kill(u)

    for u in hot:
        promote(u)
    transient = {u for u in hot if out[u] and all(a[1] == TAU for a in out[u])}

    # forward replacement: incoming tau arcs of each non-final marking are
    # re-sourced onto the visible successors found along tau chains
    for mid in sorted({a[3] for u in hot for a in out[u] if a[1] == TAU}):
        if mid in finals:
            continue
        for a in sorted(x for x in inn[mid] if x[1] == TAU):
            m1, _, trail_a, _ = a
            additions = []
            seen = {mid}
            stack = [(mid, ())]
            while stack:
                mt, acc = stack.pop()
                for b in sorted(out[mt]):
                    _, l, trail_b, m2 = b
                    if b == a:
                        continue
                    if l != TAU or m2 in finals:
                        additions.append((m1, l, trail_a + acc + trail_b, m2))
                    elif m2 not in seen:
                        seen.add(m2)
                        stack.append((m2, acc + trail_b))
            if not additions:
                raise TauReductionError(
                    "no visible continuation after tau into %s (tau cycle or dead end)"
                    % rg.marking_name(mid))
            discard(a)
            for new in additions:
                add(new)

    prune()

    # backwards replacement: remaining tau arcs all target final markings;
    # their sources' visible predecessors gain direct arcs into the final
    while True:
        taus = sorted(a for f in finals for a in inn[f] if a[1] == TAU)
        if not taus:
            break
        progressed = False
        for a in taus:
            m1, _, trail, f = a
            if any(b[1] == TAU for b in inn[m1]):
                continue  # resolve chains source-first
            if m1 == m0:
                finals.add(m0)  # the model can reach a final silently
            for b in sorted(inn[m1]):
                m2, l, trail2, _ = b
                add((m2, l, trail2 + trail, f))
            discard(a)
            progressed = True
        if not progressed:
            raise TauReductionError("tau cycle through final markings")

    prune()

    # fold markings whose only original exits were silent into an identically
    # behaving survivor, so chains like AND-join -> tau -> join-place collapse:
    # repeatedly merge the lowest candidate that has a match into
    # min(matches, key=(transient, id)), where a match is any other live
    # marking with the same signature (final or not, and its set of arcs)
    candidates = sorted(s for s in transient if alive[s] and s != m0 and s not in finals)
    if candidates:
        def signature(u):
            exits = out[u] if out[u] is not None else [a for a in raw_out[u] if alive[a[3]]]
            return (u in finals, frozenset(a[1:] for a in exits))

        sig = {u: signature(u) for u in range(n) if alive[u]}
        groups: dict = {}
        for u, key in sig.items():
            groups.setdefault(key, set()).add(u)
        is_candidate = set(candidates)
        heap = candidates  # sorted, so already a heap
        while heap:
            s = heapq.heappop(heap)
            if not alive[s] or any(x[2] == s for x in sig[s][1]):
                continue
            group = groups[sig[s]]
            if len(group) < 2:
                continue
            rep = min((m for m in group if m != s), key=lambda m: (m in transient, m))
            redirected = sorted(inn[s])
            for a in redirected:
                if out[a[0]] is None:
                    promote(a[0])  # before its counter changes
            for a in redirected:
                discard(a)
                add((a[0], a[1], a[2], rep))
            for a in list(out[s]):
                discard(a)
            alive[s] = False
            is_candidate.discard(s)
            group.discard(s)
            del sig[s]
            # only the redirected arcs' sources changed their signatures; the
            # candidates in a group that gained one of them (itself included)
            # may have a match now, so they are looked at again
            for u in {a[0] for a in redirected}:
                key = signature(u)
                if key != sig[u]:
                    groups[sig[u]].discard(u)
                    sig[u] = key
                    group = groups.setdefault(key, set())
                    group.add(u)
                    for m in group:
                        if m in is_candidate:
                            heapq.heappush(heap, m)

    prune()

    if not rg.finals:
        raise TauReductionError("no final marking reachable from the initial marking")
    if not alive[m0]:
        raise TauReductionError("initial marking has no behavior after reduction")
    live_finals = {f for f in finals if alive[f]}
    if not live_finals:
        raise TauReductionError("no final marking survives reduction")

    remap = [-1] * n
    new_markings = []
    for mid in range(n):
        if alive[mid]:
            remap[mid] = len(new_markings)
            new_markings.append(rg.markings[mid])
    # each marking's arcs in (label rank, trail, target) order
    rank = net.table.rank()
    arcs: list[Arc] = []
    new_out: list[tuple[Arc, ...]] = []
    new = tuple.__new__
    for u in range(n):
        if not alive[u]:
            continue
        if out[u] is None:
            # a cold marking's arcs are its raw visible arcs into survivors
            items = [(rank[a[1]], a[2], a[3], a[1])
                     for a in raw_out[u] if alive[a[3]]]
        else:
            items = [(rank[a[1]], a[2], a[3], a[1]) for a in out[u]]
            assert all(x[3] != TAU for x in items)
        items.sort()
        src = remap[u]
        row = tuple([new(Arc, (src, l, tr, remap[t])) for _, tr, t, l in items])
        arcs += row
        new_out.append(row)
    rebuilt = graph_of_arcs(net, new_markings, remap[m0], [remap[f] for f in live_finals],
                            arcs, reduced=True)
    assert rebuilt.out == tuple(new_out)
    return rebuilt


def shares_a_visible_label(net):
    labels = [t.label for t in net.transitions if t.label != TAU]
    return len(set(labels)) < len(labels)


GRAPH_FIELDS = ("markings", "m0", "finals", "arcs", "out", "reduced")


def outcome(fn, *args, **kwargs):
    """The graph ``fn`` returns, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs), None
    except LogAlignError as exc:
        return None, (type(exc), str(exc))


def assert_same_outcome(got, want, what):
    (got_rg, got_err), (want_rg, want_err) = got, want
    assert got_err == want_err, what
    if want_rg is None:
        return
    for name in GRAPH_FIELDS:
        assert getattr(got_rg, name) == getattr(want_rg, name), "%s: %s" % (what, name)


def assert_fixed_point(reduced, extended, what):
    """A reduced graph is what the reference reduction makes of it."""
    assert_same_outcome((reduced, None), outcome(reference_reduce, reduced, extended),
                        what + ", fixed point")


def assert_graph_code_exact(net, what):
    built = outcome(build_rg, net)
    assert_same_outcome(built, outcome(reference_build_rg, net), what)
    rg = built[0]
    if rg is None:
        return
    for extended, reduce in ((False, remove_tau), (True, remove_tau_extended)):
        label = "%s, extended=%s" % (what, extended)
        reduced = outcome(reduce, rg)
        assert_same_outcome(reduced, outcome(reference_reduce, rg, extended), label)
        if reduced[0] is not None:
            assert_fixed_point(reduced[0], extended, label)


def folding_net():
    """Parallel blocks with silent joins, one of them into a place that is
    also entered visibly, a three-way choice whose branches end silently in
    a shared place, and a branch into a chain of dead ends."""
    table = LabelTable()
    places = ["i", "s", "a1", "b1", "a2", "b2", "p", "x1", "y1", "x2", "y2", "q",
              "c1", "c2", "c3", "r", "d1", "d2", "d3", "o"]
    rows = [
        ("t_S", "S", ["i"], ["s"]),
        ("t_split1", None, ["s"], ["a1", "b1"]),
        ("t_A", "A", ["a1"], ["a2"]),
        ("t_B", "B", ["b1"], ["b2"]),
        ("t_join1", None, ["a2", "b2"], ["p"]),
        ("t_P", "P", ["p"], ["x1", "y1"]),
        ("t_X", "X", ["x1"], ["x2"]),
        ("t_Y", "Y", ["y1"], ["y2"]),
        ("t_join2", None, ["x2", "y2"], ["q"]),
        ("t_C1", "C1", ["q"], ["c1"]),
        ("t_C2", "C2", ["q"], ["c2"]),
        ("t_C3", "C3", ["q"], ["c3"]),
        ("tau_c1", None, ["c1"], ["r"]),
        ("tau_c2", None, ["c2"], ["r"]),
        ("tau_c3", None, ["c3"], ["r"]),
        ("t_R", "R", ["r"], ["o"]),
        ("t_D", "D", ["i"], ["d1"]),
        ("t_P0", "P0", ["i"], ["p"]),
        ("t_D2", "D2", ["d1"], ["d2"]),
        ("t_D3", "D3", ["d2"], ["d3"]),
    ]
    return SystemNet.build(places, rows, table, initial="i", final="o")


def shared_label_net():
    """Two transitions with one label and the same effect, so two raw arcs
    collapse into one working arc, next to a silent step."""
    table = LabelTable()
    rows = [("t_A1", "A", ["i"], ["p"]), ("t_A2", "A", ["i"], ["p"]),
            ("tau", None, ["p"], ["q"]), ("t_B", "B", ["q"], ["o"]),
            ("t_B2", "B", ["p"], ["o"])]
    return SystemNet.build(["i", "p", "q", "o"], rows, table)


def test_folding_net_merges_and_prunes():
    # the hand net really exercises the transient fold and the prune chain
    net = folding_net()
    raw = build_rg(net)
    plain = remove_tau(raw)
    # [a2,b2] folds into [p]; [c1] folds into [c2], which folds into [c3]
    for names in (["a2", "b2"], ["c1"], ["c2"], ["q"], ["r"], ["d1"], ["d2"], ["d3"]):
        assert marking_by_places(raw, names) is not None, names
        assert marking_by_places(plain, names) is None, names
    for names in (["p"], ["c3"], ["x2", "y2"]):
        assert marking_by_places(plain, names) is not None, names
    assert_graph_code_exact(net, "folding net")


def test_graph_code_exact_on_hand_nets():
    nets = {"loan": loan_net(), "sequence": sequence_net(["A", "B", "C"]),
            "parallel merge": parallel_merge_net(),
            "skippable parallel": skippable_parallel_net(),
            "shared label": shared_label_net(), "folding": folding_net()}
    for k in range(1, 9):
        nets["parallel %d" % k] = parallel_tasks_net(["T%d" % i for i in range(k)])
    for what, net in nets.items():
        assert_graph_code_exact(net, what)


def test_graph_code_exact_on_random_nets():
    count = 0
    for seed in range(80):
        for max_visible in (5, 8):
            assert_graph_code_exact(random_workflow_net(seed, max_visible=max_visible),
                                    "seed %d, max_visible %d" % (seed, max_visible))
            count += 1
    assert count >= 150


def failing_nets():
    table = LabelTable()
    tau_cycle = SystemNet.build(
        ["i", "q1", "q2", "o"],
        [("t1", "A", ["i"], ["q1"]), ("tau1", None, ["q1"], ["q2"]),
         ("tau2", None, ["q2"], ["q1"]), ("t2", "B", ["i"], ["o"])], table)
    dead_end = SystemNet.build(
        ["i", "p1", "p2", "p3", "o"],
        [("tA", "A", ["i"], ["p1"]), ("tB", "B", ["p1"], ["p3"]),
         ("tau", None, ["p1"], ["p2"]), ("tC", "C", ["p2", "p3"], ["o"])], LabelTable())
    not_1_bounded = SystemNet.build(
        ["i", "q", "o"], [("t1", "A", ["i"], ["q"]), ("t2", "B", ["q"], ["q", "o"])],
        LabelTable())
    silent_final_loop = SystemNet.build(
        ["i", "o"], [("t1", "A", ["i"], ["o"]), ("loop", None, ["o"], ["o"])],
        LabelTable(), initial="i", final="o")
    no_final = SystemNet.build(
        ["i", "p", "o"], [("t1", "A", ["i"], ["p"]), ("t2", "B", ["p"], ["i"])],
        LabelTable(), initial="i", final="o")
    stuck = SystemNet.build(
        ["i", "p", "o"], [("t1", "A", ["i"], ["p"])], LabelTable(), initial="i", final="o")
    return {"tau cycle": tau_cycle, "dead end": dead_end, "not 1-bounded": not_1_bounded,
            "silent final loop": silent_final_loop, "no final": no_final, "stuck": stuck}


def test_graph_code_exact_on_failing_inputs():
    expected = {
        "tau cycle": "tau cycle or dead end",
        "dead end": "tau cycle or dead end",
        "not 1-bounded": "exceeds one token",
        "silent final loop": "tau cycle through final markings",
        "no final": "no final marking reachable from the initial marking",
        "stuck": "no final marking reachable from the initial marking",
    }
    for what, net in failing_nets().items():
        assert_graph_code_exact(net, what)
        try:
            remove_tau(build_rg(net))
        except LogAlignError as exc:
            assert expected[what] in str(exc), what
        else:
            raise AssertionError("%s did not fail" % what)


# -- the compact form against the eager emission ------------------------------


def counted_skips(rg):
    """Breadth-first skip distance counted on the built ``out`` rows."""
    if rg.m0 in rg.finals:
        return 0
    dist = {rg.m0: 0}
    queue = deque([rg.m0])
    while queue:
        u = queue.popleft()
        for a in rg.out[u]:
            if a.tgt not in dist:
                dist[a.tgt] = dist[u] + 1
                if a.tgt in rg.finals:
                    return dist[a.tgt]
                queue.append(a.tgt)
    raise TauReductionError("no final marking reachable from the initial marking")


def assert_compact_form_matches_rows(rg, what):
    """``size()`` and ``min_visible_skips()`` answer before any ``Arc`` row
    exists, with the values counted on the rows built afterwards.  The rows
    keep their offset layout: offsets non-decreasing from 0 to the end of
    the flat arrays, one row per marking (a reduced graph's kept rows, in
    marking order), and kept rows that lead only to kept rows."""
    rows = rg._rows
    start = rows.start
    assert start[0] == 0 and start[-1] == len(rows.kind) == len(rows.tgt), what
    assert all(lo <= hi for lo, hi in zip(start, start[1:])), what
    if rows.index is not None:  # a built graph's marking -> row dict
        assert rows.index == {m: u for u, m in enumerate(rg.markings)}, what
    if rows.keep is None:
        assert len(start) == len(rg.markings) + 1 and not rows.moved, what
    else:
        assert rows.index is None, what
        keep, remap = rows.keep, rows.remap
        assert len(keep) == len(rg.markings) and len(remap) == len(start) - 1, what
        assert [u for u in range(len(remap)) if remap[u] >= 0] == list(keep), what
        assert all(remap[u] == mid for mid, u in enumerate(keep)), what
        assert set(rows.moved) <= set(keep), what
        assert all(len(ks) == len(vs) for ks, vs in rows.moved.values()), what
        assert all(remap[v] >= 0 for u in keep for v in rows.row(u)[1]), what
    size, skips = rg.size(), outcome(rg.min_visible_skips)
    assert "out" not in vars(rg) and "arcs" not in vars(rg), what
    assert size == len(rg.markings) + sum(len(row) for row in rg.out) == \
        len(rg.markings) + len(rg.arcs), what
    assert skips == outcome(counted_skips, rg), what


def assert_lazy_rows_match_eager(net, what):
    raw = outcome(build_rg, net)[0]
    if raw is None:
        return
    assert_compact_form_matches_rows(raw, what + ", raw")
    for extended, reduce in ((False, remove_tau), (True, remove_tau_extended)):
        label = "%s, extended=%s" % (what, extended)
        got, got_err = outcome(reduce, build_rg(net))
        want, want_err = outcome(eager_reduce, reference_build_rg(net), extended)
        assert got_err == want_err, label
        if want is None:
            continue
        assert_compact_form_matches_rows(got, label)
        assert len(got.out) == len(want.out), label
        for row, want_row in zip(got.out, want.out):
            assert list(row) == list(want_row), label
        assert list(got.arcs) == list(want.arcs), label
        assert all(type(a) is Arc for a in got.arcs), label
        for name in ("markings", "m0", "finals", "reduced"):
            assert getattr(got, name) == getattr(want, name), "%s: %s" % (label, name)


def in_arc_nets():
    """Nets whose built graphs test reading a marking's raw in-arcs off the
    net: in the first, B's inputs p and q give the candidate predecessor
    [p, q] of the reachable [p, r], although B does not fire into it (p is
    still marked); in the second, a silent transition marks no place."""
    refilled = SystemNet.build(
        ["i", "a", "p", "q", "r", "o"],
        [("tA", "A", ["i"], ["p", "q"]), ("tB", "B", ["p", "q"], ["r"]),
         ("tC", "C", ["i"], ["a"]), ("tau", None, ["a"], ["p", "r"]),
         ("tD", "D", ["r"], ["o"]), ("tE", "E", ["p", "r"], ["o"])], LabelTable())
    sink = SystemNet.build(
        ["i", "p", "q", "o"],
        [("tA", "A", ["i"], ["p", "q"]), ("drop", None, ["q"], []),
         ("tB", "B", ["p"], ["o"])], LabelTable())
    return {"refilled input": refilled, "sink transition": sink}


def hand_nets():
    """The hand nets, the failing inputs and ``parallel_tasks_net`` k = 1..8."""
    nets = {"loan": loan_net(), "sequence": sequence_net(["A", "B", "C"]),
            "parallel merge": parallel_merge_net(),
            "skippable parallel": skippable_parallel_net(),
            "shared label": shared_label_net(), "folding": folding_net(), **failing_nets(),
            **in_arc_nets()}
    for k in range(1, 9):
        nets["parallel %d" % k] = parallel_tasks_net(["T%d" % i for i in range(k)])
    return nets


def random_nets():
    return {"seed %d, max_visible %d" % (seed, max_visible):
            random_workflow_net(seed, max_visible=max_visible)
            for seed in range(40) for max_visible in (5, 8)}


def test_lazy_rows_match_the_eager_emission_on_hand_nets():
    for what, net in hand_nets().items():
        assert_lazy_rows_match_eager(net, what)


def test_lazy_rows_match_the_eager_emission_on_random_nets():
    for what, net in random_nets().items():
        assert_lazy_rows_match_eager(net, what)


def assert_reduced_graphs_are_fixed_points(net, what):
    if outcome(build_rg, net)[0] is None:
        return
    for extended, reduce in ((False, remove_tau), (True, remove_tau_extended)):
        reduced = outcome(reduce, build_rg(net))[0]
        if reduced is not None:
            assert_fixed_point(reduced, extended, "%s, extended=%s" % (what, extended))


def test_reduced_graphs_are_fixed_points_on_hand_nets():
    for what, net in hand_nets().items():
        assert_reduced_graphs_are_fixed_points(net, what)


def test_reduced_graphs_are_fixed_points_on_random_nets():
    for what, net in random_nets().items():
        assert_reduced_graphs_are_fixed_points(net, what)


def graph_view(rg):
    """What a graph answers, read after everything else was done to it."""
    return (rg.size(), outcome(rg.min_visible_skips), rg.out, rg.arcs, rg.markings,
            rg.m0, rg.finals)


def assert_reduction_leaves_its_input_alone(net, what):
    """Tau removal shares the flat rows of the graph it reduces, and leaves
    that graph as a freshly built one after both reductions."""
    raw = outcome(build_rg, net)[0]
    if raw is None:
        return
    for reduce in (remove_tau, remove_tau_extended):
        outcome(reduce, raw)
    assert graph_view(raw) == graph_view(build_rg(net)), what


def test_reduction_leaves_its_input_alone():
    nets = {**hand_nets(), **random_nets()}
    for what, net in nets.items():
        assert_reduction_leaves_its_input_alone(net, what)


def test_a_reduction_shares_the_raw_rows():
    # tau removal rewrites 18 of the 256 surviving rows of 8 parallel tasks,
    # and on loan most of its surviving rows; both share the raw sequences
    raw = build_rg(parallel_tasks_net(["T%d" % i for i in range(8)]))
    shared = remove_tau(raw)._rows
    assert shared.kind is raw._rows.kind and shared.tgt is raw._rows.tgt
    assert len(shared.keep) == 256 and len(shared.moved) == 18
    raw = build_rg(loan_net())
    shared = remove_tau(raw)._rows
    assert shared.kind is raw._rows.kind and shared.tgt is raw._rows.tgt
    assert 2 * len(shared.moved) > len(shared.keep)


def given_by_arcs(rg):
    return graph_of_arcs(rg.net, rg.markings, rg.m0, rg.finals, rg.arcs, rg.reduced)


def test_a_graph_given_by_arcs_answers_from_its_rows():
    rg = given_by_arcs(hand_graph(4, [(0, "A", 1), (1, "B", 3), (0, "C", 2), (2, None, 3)], 3))
    assert rg.size() == 4 + 4 and rg.min_visible_skips() == 2


def test_tau_removal_takes_only_built_graphs():
    # a reduced graph is never reduced again, and a graph given by arcs has
    # no marking index to read in-arcs through; both are refused untouched
    raw = build_rg(loan_net())
    reduced = remove_tau(build_rg(loan_net()))
    for what, rg in {"reduced": reduced, "extended": remove_tau_extended(raw),
                     "raw by arcs": given_by_arcs(raw),
                     "reduced by arcs": given_by_arcs(reduced)}.items():
        view = graph_view(rg)
        for reduce in (remove_tau, remove_tau_extended):
            with pytest.raises(ValueError, match="built by build_rg"):
                reduce(rg)
        assert graph_view(rg) == view, what


def test_markings_no_silent_arc_touches_die_exactly():
    # the visible chain 3 -> 4 -> 5 ends in a deadlock and dies from its end
    rg = hand_graph(7, [(0, "A", 1), (1, "B", 2), (0, "C", 3), (3, "D", 4),
                        (4, "E", 5), (1, None, 6), (6, "G", 2)], 2)
    for extended, reduce in ((False, remove_tau), (True, remove_tau_extended)):
        label = "deadlock, extended=%s" % extended
        assert_compact_form_matches_rows(reduce(rg), label)
        reduced = outcome(reduce, rg)
        assert_same_outcome(reduced, outcome(reference_reduce, rg, extended), label)
        assert arcs_by_name(reduced[0]) == [(0, "A", 1), (1, "B", 2), (1, "G", 2)], label


def test_build_rg_exact_at_the_cap():
    for net in (loan_net(), parallel_tasks_net(["T%d" % i for i in range(8)])):
        size = len(build_rg(net).markings)
        for cap in (size, size - 1, 1):
            assert_same_outcome(outcome(build_rg, net, cap=cap),
                                outcome(reference_build_rg, net, cap=cap), "cap %d" % cap)
        assert outcome(build_rg, net, cap=size)[1] is None
        assert outcome(build_rg, net, cap=size - 1)[1] == (
            StateSpaceCapError, "marking cap %d exceeded" % (size - 1))


def hand_graph(n, rows, final):
    """The built graph of a state machine over places 0..n-1, a token on 0
    at first and on ``final`` at the end, with one transition per row of
    (source, label or None for silent, target)."""
    places = ["p%d" % k for k in range(n)]
    net = SystemNet.build(places, [("t%d" % k, label, [places[src]], [places[tgt]])
                                   for k, (src, label, tgt) in enumerate(rows)],
                          LabelTable(), initial="p0", final=places[final])
    return build_rg(net)


def arcs_by_name(rg):
    return sorted((rg.markings[a.src].bit_length() - 1, rg.net.table.text(a.label),
                   rg.markings[a.tgt].bit_length() - 1) for a in rg.arcs)


def test_transient_fold_prefers_a_survivor_that_is_not_transient():
    # 2 and 3 only exit silently into 4; after forward replacement 2, 3 and
    # 4 all read {A->1, L->2}.  2 has a self-loop and stays; 3 folds into
    # 4, which is not transient, rather than into the lower-numbered 2
    rows = [(0, "X", 2), (0, "Y", 3), (0, "Z", 4), (2, None, 4), (3, None, 4),
            (4, "A", 1), (4, "L", 2)]
    rg = hand_graph(5, rows, 1)
    reduced = remove_tau(rg)
    assert arcs_by_name(reduced) == [(0, "X", 2), (0, "Y", 4), (0, "Z", 4), (2, "A", 1),
                                     (2, "L", 2), (4, "A", 1), (4, "L", 2)]
    assert_same_outcome((reduced, None), outcome(reference_reduce, rg, False), "plain")


def test_transient_fold_revisits_a_candidate_that_gains_a_match():
    # 1 reads {A->4} and has no match at first; folding 3 into 4 turns 2's
    # arc A->3 into A->4, so 1 then folds into 2
    rows = [(0, "X", 1), (0, "Y", 2), (1, None, 5), (5, "A", 4), (2, "A", 3),
            (3, None, 7), (7, "B", 6), (4, "B", 6)]
    rg = hand_graph(8, rows, 6)
    reduced = remove_tau(rg)
    assert arcs_by_name(reduced) == [(0, "X", 2), (0, "Y", 2), (2, "A", 4), (4, "B", 6)]
    assert_same_outcome((reduced, None), outcome(reference_reduce, rg, False), "plain")


def assert_rows_hold_the_arcs(rg, what):
    """Each ``out`` entry is an arc object of ``rg.arcs``, each arc sits in
    exactly one row, and every row keeps ``arcs`` order."""
    position = {id(a): k for k, a in enumerate(rg.arcs)}
    assert len(rg.out) == len(rg.markings), what
    seen = []
    for mid, row in enumerate(rg.out):
        for a in row:
            assert id(a) in position and rg.arcs[position[id(a)]] is a, what
            assert a.src == mid, what
        ks = [position[id(a)] for a in row]
        assert ks == sorted(ks), what
        seen += ks
    assert sorted(seen) == list(range(len(rg.arcs))), what


def test_adjacency_rows_hold_the_arc_objects():
    nets = {"loan": loan_net()}
    for k in range(1, 7):
        nets["parallel %d" % k] = parallel_tasks_net(["T%d" % i for i in range(k)])
    for seed in range(40):
        nets["seed %d" % seed] = random_workflow_net(seed, max_visible=8)
    for what, net in nets.items():
        raw = build_rg(net)
        graphs = {"raw": raw, "plain": remove_tau(raw), "extended": remove_tau_extended(raw),
                  "rows from arcs": given_by_arcs(raw)}
        for name, rg in graphs.items():
            assert_rows_hold_the_arcs(rg, "%s, %s" % (what, name))


def test_a_raw_silent_arc_carries_its_own_transition():
    nets = {"loan": loan_net()}
    for k in range(1, 7):
        nets["parallel %d" % k] = parallel_tasks_net(["T%d" % i for i in range(k)])
    for seed in range(40):
        nets["seed %d" % seed] = random_workflow_net(seed, max_visible=8)
    silent = 0
    for what, net in nets.items():
        raw = build_rg(net)
        for a in raw.arcs:
            if a.label != TAU:
                assert a.trail == (), what
                continue
            (t,) = a.trail
            m = raw.markings[a.src]
            assert net.transitions[t].label == TAU and net.enabled(m, t), what
            assert net.fire(m, t) == raw.markings[a.tgt], what
            silent += 1
        assert all(a.trail == () for a in remove_tau(raw).arcs), what
    assert silent > 100


def test_graph_memory_per_arc():
    # flat rows hold an arc in a few bytes: the reduced graph of 12 parallel
    # tasks holds about 28 bytes per arc once its raw graph is dropped, and
    # building and reducing it peaks at about 41 (per-marking row lists took
    # 66 and 102)
    net = parallel_tasks_net(["T%d" % i for i in range(12)])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        reduced = remove_tau(build_rg(net))
        live, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    arcs = reduced.size() - len(reduced.markings)
    assert arcs == 12 * 2 ** 11
    assert (live - base) / arcs < 36
    assert (peak - base) / arcs < 64
