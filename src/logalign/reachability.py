"""Reachability graphs of 1-bounded system nets and silent-arc removal.

``build_rg`` expands a net breadth-first into its marking graph.
``remove_tau`` / ``remove_tau_extended`` rewrite a graph built by
``build_rg``, and only such a graph, so that no arc carries the silent
label while the visible trace language between the initial and final
markings is preserved.  Nothing reduces a graph twice: a reduced graph
raises ``ValueError``.  An arc's trail lists the silent transitions it
stands for: a raw silent arc's trail is its own transition, a raw visible
arc's is empty.  In extended mode every rewritten arc keeps the trails it
absorbed (its tau trail), which the recomposition stage uses to detect
hidden label conflicts; plain tau removal drops them.

A graph holds its arcs in a compact form (``_Rows``): the transitions fired
and the markings reached by all arcs, in flat sequences row after row, with
one offset per marking where its row starts (compressed sparse rows).  Tau
removal shares those sequences with the graph it reduces and records what
it left of them: the surviving markings, and apart from the shared rows the
rewritten rows of the markings whose arcs it changed.  A surviving row's
arcs all lead to surviving rows.  ``size()`` and ``min_visible_skips()``
read this form.

Everything that walks a graph's arcs reads its successor index ``succ``,
built from the rows once, on the first walk: the searches, the heuristic
precompute, the propriety checks and the oracle.  ``succ[m]`` holds a
``Successor`` (target, trail, label, label rank) per arc that leaves
marking ``m``, in storage order; no reader depends on that order.  The
ranks are the label table's (``LabelTable.rank``) when the index is built;
a label interned later leaves their order unchanged.
Arcs of one kind into one marking share their ``Successor``.  The ``Arc``
objects, ``arcs`` and the ``out`` rows (``out[m]`` holds the arcs of
``arcs`` that leave marking ``m``, in (label rank, trail, target) order),
are read off the index only by dot files and tests, so no alignment builds
them.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_right
from collections import deque
from functools import cached_property
from itertools import accumulate, chain, compress, islice
from operator import sub
from typing import NamedTuple, Optional

from .errors import Not1BoundedError, StateSpaceCapError, TauReductionError
from .logs import TAU
from .petri import SystemNet, dot_string

DEFAULT_MARKING_CAP = 5_000_000
_BATCH = 4096  # kinds build_rg gathers in a list before moving them into its array


class Arc(NamedTuple):
    src: int
    label: int
    trail: tuple[int, ...]  # silent transitions: a raw silent arc's own, or those absorbed
    tgt: int


class Successor(NamedTuple):
    """One arc of a successor row, without its source.  The fields compare
    target first, then trail, as the searches' tie keys do."""

    tgt: int
    trail: tuple[int, ...]
    label: int
    rank: int  # the label's rank (``LabelTable.rank``) when the index was built


class _Rows:
    """A graph's arcs in flat sequences, one offset per row (CSR).

    Row ``u`` holds the arcs ``start[u]:start[u + 1]`` of ``kind`` and
    ``tgt``: each arc's kind, an index into ``labels`` and ``trails`` (the
    kinds of a built graph are its net's transitions), and its target row.
    ``start`` and ``kind`` are ``array('i')``, 4 bytes an item.  ``tgt`` is
    a list: its items are read without making an int object per read, and
    all arcs into a row share one int object, 8 bytes an arc in all.
    ``index``, kept by ``build_rg`` only, maps each marking to its row, so
    that tau removal reads a row's raw in-arcs off the net; tau removal
    takes only rows that have it.

    Tau removal shares ``start``, ``kind`` and ``tgt`` with the graph it
    reduces, which it leaves unchanged, and records what it left of them:
    ``keep`` lists the surviving rows in the graph's marking order,
    ``remap`` gives each row's marking id (-1 once removed), and ``moved``
    maps each surviving row it rewrote to that row's own ``(kind, tgt)``
    pair of lists, read instead of the shared slices.  A surviving row's
    arcs all lead to surviving rows, so no read needs to filter them.
    ``arc_count`` counts the arcs of the surviving rows.
    """

    __slots__ = ("labels", "trails", "start", "kind", "tgt", "keep", "remap", "moved",
                 "arc_count", "index")

    def __init__(self, labels: list[int], trails: list[tuple[int, ...]], start: array,
                 kind: array, tgt: list[int], keep: Optional[array] = None,
                 remap: Optional[array] = None, moved: Optional[dict] = None,
                 arc_count: Optional[int] = None, index: Optional[dict[int, int]] = None):
        self.labels = labels
        self.trails = trails
        self.start = start
        self.kind = kind
        self.tgt = tgt
        self.keep = keep  # None: one row per marking, none removed
        self.remap = remap
        self.moved = {} if moved is None else moved
        self.arc_count = len(tgt) if arc_count is None else arc_count
        self.index = index

    def row(self, u: int) -> tuple:
        """The kinds and the targets of row ``u``."""
        moved = self.moved.get(u)
        if moved is not None:
            return moved
        lo, hi = self.start[u], self.start[u + 1]
        return self.kind[lo:hi], self.tgt[lo:hi]

    def distance(self, m0: int, finals: frozenset[int]) -> int:
        """Arc length of the shortest path from marking ``m0`` to one of ``finals``."""
        first, goals = m0, finals
        if self.keep is not None:
            first, goals = self.keep[m0], {self.keep[f] for f in finals}
        if first in goals:
            return 0
        tgt, moved = self.tgt, self.moved
        start = self.start.tolist()  # two reads a row, without making an int per read
        # breadth-first, one level at a time
        seen = bytearray(len(start) - 1)
        seen[first] = 1
        level = [first]
        d = 0
        while level:
            d += 1
            reached = []
            for u in level:
                for v in moved[u][1] if u in moved else tgt[start[u]:start[u + 1]]:
                    if not seen[v]:
                        if v in goals:
                            return d
                        seen[v] = 1
                        reached.append(v)
            level = reached
        raise TauReductionError("no final marking reachable from the initial marking")

    def successors(self, rank: dict[int, int],
                   shared_from: int) -> tuple[tuple[Successor, ...], ...]:
        """The successor rows by marking id, each row's arcs in row order.
        Arcs of a kind ``shared_from`` or above into one marking share one
        entry.  The kinds below it are the net's transitions, and no two arcs
        of one transition lead into one marking: the firing rule run
        backwards gives its one source, so those arcs share nothing and no
        lookup is made."""
        labels, trails = self.labels, self.trails
        ranks = [rank[label] for label in labels]
        nkinds = len(labels)
        new = tuple.__new__  # a Successor without the NamedTuple constructor's call overhead
        shared: dict[int, Successor] = {}  # by target * nkinds + kind
        if self.keep is None:
            kept, ids = range(len(self.start) - 1), None
        else:
            kept, ids = self.keep, self.remap.tolist()  # one int object per marking id
        rows = []
        for u in kept:
            ks, vs = self.row(u)
            if ids is not None:
                vs = [ids[v] for v in vs]
            row = []
            for k, v in zip(ks, vs):
                if k < shared_from:
                    row.append(new(Successor, (v, trails[k], labels[k], ranks[k])))
                    continue
                s = shared.get(v * nkinds + k)
                if s is None:
                    s = shared[v * nkinds + k] = new(Successor, (v, trails[k], labels[k], ranks[k]))
                row.append(s)
            rows.append(tuple(row))
        return tuple(rows)


class ReachabilityGraph:
    """A marking graph: ``markings`` (bitmasks) by marking id, the initial
    marking ``m0`` and the ``finals`` as ids, and its arcs in compact
    ``rows`` (built by ``build_rg`` or by tau removal).
    """

    net: SystemNet
    markings: tuple[int, ...]
    m0: int
    finals: frozenset[int]
    reduced: bool

    def __init__(self, net: SystemNet, markings: tuple[int, ...], m0: int,
                 finals: frozenset[int], rows: _Rows, reduced: bool = False):
        self.net = net
        self.markings = markings
        self.m0 = m0
        self.finals = finals
        self.reduced = reduced
        self._rows = rows

    @cached_property
    def succ(self) -> tuple[tuple[Successor, ...], ...]:
        return self._rows.successors(self.net.table.rank(), len(self.net.transitions))

    @cached_property
    def out(self) -> tuple[tuple[Arc, ...], ...]:
        new = tuple.__new__
        return tuple(tuple([new(Arc, (u, s.label, s.trail, s.tgt))
                            for s in sorted(row, key=lambda s: (s.rank, s.trail, s.tgt))])
                     for u, row in enumerate(self.succ))

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(chain.from_iterable(self.out))

    def size(self) -> int:
        return len(self.markings) + self._rows.arc_count

    def marking_name(self, mid: int) -> str:
        return self.net.marking_name(self.markings[mid])

    def min_visible_skips(self) -> int:
        """Arc length of the shortest path from m0 to a final marking,
        searched once per graph."""
        skips = getattr(self, "_min_visible_skips", None)
        if skips is None:
            skips = self._min_visible_skips = self._rows.distance(self.m0, self.finals)
        return skips


def min_visible_skips_net(net: SystemNet, cap: int = DEFAULT_MARKING_CAP) -> int:
    """Shortest number of visible firings from m0 to a final marking,
    computed directly on the net (0/1 breadth-first search over markings)."""
    dist = {net.m0: 0}
    queue = deque([(0, net.m0)])
    while queue:
        d, m = queue.popleft()
        if d > dist.get(m, cap + 1):
            continue
        if m in net.finals:
            return d
        for t in range(len(net.transitions)):
            if not net.enabled(m, t) or net.fire_overflows(m, t):
                continue
            m2 = (m & ~net.pre[t]) | net.post[t]
            w = 0 if net.transitions[t].label == TAU else 1
            if d + w < dist.get(m2, cap + 1):
                if len(dist) > cap:
                    raise StateSpaceCapError("marking cap %d exceeded" % cap)
                dist[m2] = d + w
                if w == 0:
                    queue.appendleft((d, m2))
                else:
                    queue.append((d + w, m2))
    raise TauReductionError("no final marking reachable from the initial marking")


def build_rg(net: SystemNet, cap: int = DEFAULT_MARKING_CAP) -> ReachabilityGraph:
    """Breadth-first expansion of all reachable markings.

    Raises Not1BoundedError when a firing stacks a second token on a place
    and StateSpaceCapError when more than ``cap`` markings are discovered.
    """
    firing = [(t, pre, ~pre, post) for t, (pre, post) in enumerate(zip(net.pre, net.post))]
    index = {net.m0: 0}
    markings = [net.m0]
    kind, tgt, start = array("i"), [], array("i", [0])
    ks: list[int] = []  # transitions fired since the last move into ``kind``
    # breadth-first: markings are expanded in id order while the list grows
    for m in markings:
        for t, pre, keep, post in firing:
            if (m & pre) != pre:
                continue
            rest = m & keep
            if rest & post:
                raise Not1BoundedError(
                    "firing %s at %s exceeds one token on a place"
                    % (net.transitions[t].name, net.marking_name(m)))
            m2 = rest | post
            tid = index.get(m2)
            if tid is None:
                tid = len(markings)
                if tid >= cap:
                    raise StateSpaceCapError("marking cap %d exceeded" % cap)
                index[m2] = tid
                markings.append(m2)
            ks.append(t)  # a list append is cheaper than an array's
            tgt.append(tid)
        if len(ks) >= _BATCH:
            kind.fromlist(ks)
            ks.clear()
        start.append(len(tgt))
    kind.fromlist(ks)
    finals = frozenset(index[f] for f in net.finals if f in index)
    labels = [tr.label for tr in net.transitions]
    # a silent arc's trail is its own transition
    trails = [(t,) if label == TAU else () for t, label in enumerate(labels)]
    return ReachabilityGraph(net, tuple(markings), 0, finals,
                             _Rows(labels, trails, start, kind, tgt, index=index))


def _fired_into(net: SystemNet, index: dict[int, int]):
    """The backward step of ``build_rg``'s firing rule: a function giving,
    for a marking, each transition that fires into it with the row (in
    ``index``) of the marking it fires in, when that marking is reachable."""
    producers: dict = {}  # transitions by the lowest place they mark (0: none)
    for t, (pre, post) in enumerate(zip(net.pre, net.post)):
        producers.setdefault(post & -post, []).append((t, pre, post, ~post))

    def fired_into(m):
        found = []
        bits = m
        while True:  # each marked place, then the transitions that mark none
            low = bits & -bits
            for t, pre, post, unpost in producers.get(low, ()):
                if m & post == post:
                    rest = m & unpost  # the marking t fired in, less t's preset
                    if not rest & pre:
                        u = index.get(rest | pre)
                        if u is not None:
                            found.append((t, u))
            if not bits:
                return found
            bits ^= low

    return fired_into


def remove_tau(rg: ReachabilityGraph) -> ReachabilityGraph:
    return _reduce(rg, extended=False)


def remove_tau_extended(rg: ReachabilityGraph) -> ReachabilityGraph:
    """As remove_tau, but replacement arcs carry the absorbed tau indices."""
    return _reduce(rg, extended=True)


def _reduce(rg: ReachabilityGraph, extended: bool) -> ReachabilityGraph:
    """Rewrite ``rg``, a graph built by ``build_rg``, without silent arcs.

    The rewrite works on arcs ``(src, label, trail, tgt)``.  Only some
    markings get explicit arc sets ("hot" markings): the tau arcs' sources
    and targets, the final markings, and every marking one of whose arcs is
    added or removed, made hot just before that change.  Every other marking
    is "cold": its arcs are exactly its raw arcs.  Phases, orders and
    tie-breaks are those of a rewrite with arc sets for every marking, so
    the result is the same graph.  The raw in-arcs are read off the net
    through the rows' ``index``; every marking but m0 has one, as
    ``build_rg`` reached it by an arc.  The result shares the raw rows' flat
    sequences, leaving them unchanged, and holds each surviving hot
    marking's arc set as a row of its own.
    """
    net = rg.net
    rows = rg._rows
    if rows.index is None:
        raise ValueError("tau removal takes a graph built by build_rg")
    labels, start, kind, tgt = rows.labels, rows.start, rows.kind, rows.tgt
    # plain removal drops the silent transitions' trails
    trails = [tr if extended or label != TAU else () for label, tr in zip(labels, rows.trails)]
    n = len(start) - 1
    m0 = rg.m0
    finals = set(rg.finals)
    hot = set(finals)
    silent = {k for k, label in enumerate(labels) if label == TAU}
    for i in [i for i, k in enumerate(kind) if k in silent]:  # each silent arc's ends
        hot.add(bisect_right(start, i) - 1)
        hot.add(tgt[i])
    fired_into, markings = _fired_into(net, rows.index), rg.markings

    def raw_out(u):
        lo, hi = start[u], start[u + 1]
        return [(u, labels[k], trails[k], v) for k, v in zip(kind[lo:hi], tgt[lo:hi])]

    def raw_inn(v):
        return [(u, labels[t], trails[t], v) for t, u in fired_into(markings[v])]

    if _shares_a_visible_label(net):
        # a cold row is emitted raw, so it must hold no two raw arcs that are
        # equal in working form (a net without shared visible labels has no
        # such arcs in its built or its reduced graph)
        for u in range(n):
            if len(set(raw_out(u))) < start[u + 1] - start[u]:
                hot.add(u)

    alive = bytearray(b"\x01") * n
    dead: list[int] = []  # the removed markings
    out: list = [None] * n  # arc sets of hot markings, None while cold
    inn: list = [None] * n
    promoted: list[int] = []  # the hot markings
    touched: list[int] = []  # markings prune() must look at

    def promote(u):
        if out[u] is None:
            promoted.append(u)
            out[u] = set(raw_out(u))
            inn[u] = set(raw_inn(u))

    def add(a):
        u, v = a[0], a[3]
        if out[u] is None:
            promote(u)
        if out[v] is None:
            promote(v)
        out[u].add(a)
        inn[v].add(a)

    def discard(a):
        u, v = a[0], a[3]
        if out[u] is None:
            promote(u)
        if out[v] is None:
            promote(v)
        out[u].discard(a)
        inn[v].discard(a)
        touched.append(u)
        touched.append(v)

    def kill(u):
        alive[u] = 0
        dead.append(u)
        promote(u)
        for a in list(out[u]) + list(inn[u]):
            discard(a)

    def prune():
        # the greatest set of markings that have an incoming arc (or are m0)
        # and an outgoing arc (or are final) is unique, so any order finds it
        while touched:
            u = touched.pop()
            if not alive[u]:
                continue
            if out[u] is None:  # a cold marking keeps its raw in-arcs
                no_in, no_out = False, start[u] == start[u + 1]
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

    # a cold marking with raw arcs in and out stays, so the first prune looks
    # only at the hot markings and at the cold ones without raw out-arcs
    lengths = list(map(sub, islice(start, 1, None), start))  # each row's raw arc count
    touched.extend(chain(promoted, _positions(lengths, 0)))
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
    # repeatedly merge the lowest candidate that has a twin into
    # min(twins, key=(transient, id)), where a twin is any other live marking
    # with the same signature (final or not, and its set of arcs).  Every
    # twin of a hot marking has that marking's least exit, so the twins are
    # among the sources of the in-arcs of its target (raw ones while the
    # target is cold); a dead marking has no arcs left.
    candidates = sorted(s for s in transient if alive[s] and s != m0 and s not in finals)
    if candidates:
        def signature(u):
            exits = out[u] if out[u] is not None else raw_out(u)
            return (u in finals, frozenset(a[1:] for a in exits))

        def twins(u, key):
            _, label, trail, v = min(out[u])
            into = inn[v] if inn[v] is not None else raw_inn(v)
            return [a[0] for a in into if a[0] != u and a[1] == label and a[2] == trail
                    and signature(a[0]) == key]

        is_candidate = set(candidates)
        heap = candidates  # sorted, so already a heap
        while heap:
            s = heapq.heappop(heap)
            if not alive[s]:
                continue
            key = signature(s)
            if any(x[2] == s for x in key[1]):
                continue
            group = twins(s, key)
            if not group:
                continue
            rep = min(group, key=lambda m: (m in transient, m))
            redirected = sorted(inn[s])
            for a in redirected:
                discard(a)
                add((a[0], a[1], a[2], rep))
            for a in list(out[s]):
                discard(a)
            alive[s] = 0
            dead.append(s)
            # only the redirected arcs' sources changed their signatures; the
            # candidates among each one and its new twins may have a match
            # now, so they are looked at again
            for u in {a[0] for a in redirected}:
                for m in [u] + twins(u, signature(u)):
                    if m in is_candidate:
                        heapq.heappush(heap, m)

    prune()

    if not rg.finals:  # the cause of either failure below
        raise TauReductionError("no final marking reachable from the initial marking")
    if not alive[m0]:
        raise TauReductionError("initial marking has no behavior after reduction")
    live_finals = {f for f in finals if alive[f]}
    if not live_finals:
        raise TauReductionError("no final marking survives reduction")

    keep = array("i", compress(range(n), alive))
    remap = array("i", accumulate(alive, initial=0))  # the live rows before each row
    remap.pop()
    for u in dead:
        remap[u] = -1
    # a surviving hot marking's arc set becomes its own row, with kinds
    # numbered after the raw ones; a cold marking keeps its raw row, which
    # has no silent arc and no arc into a removed marking
    extra: dict = {}  # (label, trail) -> kind
    moved = {}
    arc_count = len(tgt) - sum(start[u + 1] - start[u] for u in dead)
    for u in sorted(promoted):
        if alive[u]:
            arcs = list(out[u])
            assert all(a[1] != TAU for a in arcs)
            moved[u] = ([extra.setdefault(a[1:3], len(labels) + len(extra)) for a in arcs],
                        [a[3] for a in arcs])
            arc_count += len(arcs) - (start[u + 1] - start[u])
    rows = _Rows(labels + [label for label, _ in extra],
                 rows.trails + [trail for _, trail in extra], start, kind, tgt,
                 keep, remap, moved, arc_count)
    return ReachabilityGraph(net, tuple(compress(rg.markings, alive)), remap[m0],
                             frozenset(remap[f] for f in live_finals), rows, reduced=True)


def _positions(seq: array, x: int):
    """The indices at which ``x`` occurs in ``seq``, found by the sequence's
    own scan."""
    i = -1
    while True:
        try:
            i = seq.index(x, i + 1)
        except ValueError:
            return
        yield i


def _shares_a_visible_label(net: SystemNet) -> bool:
    labels = [t.label for t in net.transitions if t.label != TAU]
    return len(set(labels)) < len(labels)


def rg_to_dot(rg: ReachabilityGraph) -> str:
    lines = ["digraph rg {", "  rankdir=LR;"]
    for mid in range(len(rg.markings)):
        shape = "doublecircle" if mid in rg.finals else "ellipse"
        lines.append("  m%d [shape=%s, label=%s];" % (mid, shape, dot_string(rg.marking_name(mid))))
    for a in rg.arcs:
        text = rg.net.table.text(a.label)
        if a.trail:
            text += " (%s)" % ",".join(rg.net.transitions[t].name for t in a.trail)
        lines.append("  m%d -> m%d [label=%s];" % (a.src, a.tgt, dot_string(text)))
    lines.append("}")
    return "\n".join(lines)
