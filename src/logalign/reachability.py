"""Reachability graphs of 1-bounded system nets and silent-arc removal.

``build_rg`` expands a net breadth-first into its marking graph.
``remove_tau`` / ``remove_tau_extended`` rewrite the graph so that no arc
carries the silent label while the visible trace language between the
initial and final markings is preserved.  An arc's trail lists the silent
transitions it stands for: a raw silent arc's trail is its own transition,
a raw visible arc's is empty.  In extended mode every rewritten arc keeps
the trails it absorbed (its tau trail), which the recomposition stage uses
to detect hidden label conflicts; plain tau removal drops them.

A graph holds its arcs in a compact form of plain ints: for each marking
of the built graph, the transitions it fires and the markings they reach
(``_Rows``).  Tau removal keeps those rows and records what it left of
them: the surviving markings and the rewritten rows of the markings whose
arcs it changed.  A surviving row's arcs all lead to surviving rows.
``size()`` and ``min_visible_skips()`` read this form.  The ``Arc`` objects, ``arcs``
and the ``out`` rows (``out[m]`` holds the arcs of ``arcs`` that leave
marking ``m``, in ``arcs`` order), are built once, when a search or a dot
file first reads them, so a graph that is only compared by size never
builds them.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import cached_property
from itertools import chain
from typing import NamedTuple, Optional

from .errors import Not1BoundedError, StateSpaceCapError, TauReductionError
from .logs import TAU
from .petri import SystemNet

DEFAULT_MARKING_CAP = 5_000_000


class Arc(NamedTuple):
    src: int
    label: int
    trail: tuple[int, ...]  # silent transitions: a raw silent arc's own, or those absorbed
    tgt: int


class _Rows:
    """A graph's arcs as plain ints.

    ``kind[u]`` and ``tgt[u]`` hold the arcs of row ``u``: each arc's kind,
    an index into ``labels`` and ``trails`` (the kinds of a built graph are
    its net's transitions), and its target row.  Rows that tau removal
    rewrote also record what it left: ``keep`` lists the surviving rows in
    the graph's marking order and ``remap`` gives each row's marking id (-1
    once removed).  A surviving row's arcs all lead to surviving rows.
    """

    __slots__ = ("labels", "trails", "kind", "tgt", "keep", "remap")

    def __init__(self, labels: list[int], trails: list[tuple[int, ...]], kind: list[list[int]],
                 tgt: list[list[int]], keep: Optional[list[int]] = None,
                 remap: Optional[list[int]] = None):
        self.labels = labels
        self.trails = trails
        self.kind = kind
        self.tgt = tgt
        self.keep = keep  # None: rows not rewritten, one per marking
        self.remap = remap

    @classmethod
    def of_out(cls, out) -> _Rows:
        """The rows of ``Arc`` rows, with one kind per (label, trail) pair."""
        kinds: dict = {}
        kind = [[kinds.setdefault((a.label, a.trail), len(kinds)) for a in row] for row in out]
        return cls([label for label, _ in kinds], [trail for _, trail in kinds], kind,
                   [[a.tgt for a in row] for row in out])

    def arc_count(self) -> int:
        rows = self.tgt if self.keep is None else [self.tgt[u] for u in self.keep]
        return sum(map(len, rows))

    def distance(self, m0: int, finals: frozenset[int]) -> int:
        """Arc length of the shortest path from marking ``m0`` to one of ``finals``."""
        start, goals = m0, finals
        if self.keep is not None:
            start, goals = self.keep[m0], {self.keep[f] for f in finals}
        if start in goals:
            return 0
        tgt = self.tgt
        # breadth-first, one level at a time
        seen = bytearray(len(tgt))
        seen[start] = 1
        level = [start]
        d = 0
        while level:
            d += 1
            reached = []
            for u in level:
                for v in tgt[u]:
                    if not seen[v]:
                        if v in goals:
                            return d
                        seen[v] = 1
                        reached.append(v)
            level = reached
        raise TauReductionError("no final marking reachable from the initial marking")

    def out(self, rank: dict[int, int]) -> tuple[tuple[Arc, ...], ...]:
        """The ``Arc`` rows: in row order, or, for rewritten rows, each
        marking's arcs in (label rank, trail, target) order."""
        labels, trails, kind, tgt = self.labels, self.trails, self.kind, self.tgt
        new = tuple.__new__  # Arc(...) without the NamedTuple constructor's call overhead
        if self.keep is None:
            return tuple([tuple([new(Arc, (u, labels[k], trails[k], v)) for k, v in zip(ks, vs)])
                          for u, (ks, vs) in enumerate(zip(kind, tgt))])
        remap = self.remap
        rows = []
        for src, u in enumerate(self.keep):
            items = [(rank[labels[k]], trails[k], v, labels[k]) for k, v in zip(kind[u], tgt[u])]
            items.sort()
            rows.append(tuple([new(Arc, (src, l, tr, remap[t])) for _, tr, t, l in items]))
        return tuple(rows)


class ReachabilityGraph:
    """A marking graph: ``markings`` (bitmasks) by marking id, the initial
    marking ``m0`` and the ``finals`` as ids, and its arcs.

    A graph is given either by its compact ``rows`` (``build_rg`` and tau
    removal) or by its ``arcs``, whose rows are then read off them.
    """

    net: SystemNet
    markings: tuple[int, ...]
    m0: int
    finals: frozenset[int]
    reduced: bool

    def __init__(self, net: SystemNet, markings: tuple[int, ...], m0: int,
                 finals: frozenset[int], arcs: Optional[tuple[Arc, ...]] = None,
                 reduced: bool = False, *, rows: Optional[_Rows] = None):
        self.net = net
        self.markings = markings
        self.m0 = m0
        self.finals = finals
        self.reduced = reduced
        if rows is None:
            self.arcs = tuple(arcs)
            out: list[list[Arc]] = [[] for _ in markings]
            for a in self.arcs:
                out[a.src].append(a)
            self.out = tuple(tuple(x) for x in out)
            rows = _Rows.of_out(self.out)
        self._rows = rows

    @cached_property
    def out(self) -> tuple[tuple[Arc, ...], ...]:
        return self._rows.out(self.net.table.rank())

    @cached_property
    def arcs(self) -> tuple[Arc, ...]:
        return tuple(chain.from_iterable(self.out))

    def size(self) -> int:
        return len(self.markings) + self._rows.arc_count()

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
    kind: list[list[int]] = []  # per marking: the transitions it fires
    tgt: list[list[int]] = []  # per marking: the markings they reach
    # breadth-first: markings are expanded in id order while the list grows
    for m in markings:
        ts: list[int] = []
        vs: list[int] = []
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
            ts.append(t)
            vs.append(tid)
        kind.append(ts)
        tgt.append(vs)
    finals = frozenset(index[f] for f in net.finals if f in index)
    labels = [tr.label for tr in net.transitions]
    # a silent arc's trail is its own transition
    trails = [(t,) if label == TAU else () for t, label in enumerate(labels)]
    return ReachabilityGraph(net, tuple(markings), 0, finals,
                             rows=_Rows(labels, trails, kind, tgt))


def remove_tau(rg: ReachabilityGraph) -> ReachabilityGraph:
    return _reduce(rg, extended=False)


def remove_tau_extended(rg: ReachabilityGraph) -> ReachabilityGraph:
    """As remove_tau, but replacement arcs carry the absorbed tau indices."""
    return _reduce(rg, extended=True)


def _reduce(rg: ReachabilityGraph, extended: bool) -> ReachabilityGraph:
    """Rewrite ``rg`` without silent arcs.

    The rewrite works on arcs ``(src, label, trail, tgt)``.  Only some
    markings get explicit arc sets ("hot" markings): the tau arcs' sources
    and targets, the final markings, and every marking one of whose arcs is
    added or removed, made hot just before that change.  Every other marking
    is "cold": its arcs are exactly its raw arcs.  Phases, orders and
    tie-breaks are those of a rewrite with arc sets for every marking, so
    the result is the same graph.  The raw graph's predecessor rows are
    derived here from its rows; no graph carries them.  The result keeps
    the raw rows, with each surviving hot marking's arc set written as its
    row.
    """
    net = rg.net
    rows = rg._rows
    if rows.keep is not None:  # a rewritten graph is rewritten again from its own arcs
        rows = _Rows.of_out(rg.out)
    labels, kind, tgt = rows.labels, rows.kind, rows.tgt
    # plain removal drops the silent transitions' trails
    trails = [tr if extended or label != TAU else () for label, tr in zip(labels, rows.trails)]
    n = len(tgt)
    srcs: list[list[int]] = [[] for _ in range(n)]  # each raw arc's source, by target
    for u, vs in enumerate(tgt):
        for v in vs:
            srcs[v].append(u)
    m0 = rg.m0
    finals = set(rg.finals)

    def raw_out(u):
        return [(u, labels[k], trails[k], v) for k, v in zip(kind[u], tgt[u])]

    def raw_inn(v):
        return [(u, labels[k], trails[k], v) for u in dict.fromkeys(srcs[v])
                for k, w in zip(kind[u], tgt[u]) if w == v]

    hot = set(finals)
    silent = {k for k, label in enumerate(labels) if label == TAU}
    for u, ks in enumerate(kind):
        if not silent.isdisjoint(ks):
            for k, v in zip(ks, tgt[u]):
                if k in silent:
                    hot.add(u)
                    hot.add(v)
    if _shares_a_visible_label(net):
        # a cold row is emitted raw, so it must hold no two raw arcs that are
        # equal in working form (a net without shared visible labels has no
        # such arcs in its built or its reduced graph)
        for u in range(n):
            if len(set(raw_out(u))) < len(kind[u]):
                hot.add(u)

    alive = [True] * n
    out: list = [None] * n  # arc sets of hot markings, None while cold
    inn: list = [None] * n
    touched = list(range(n))  # markings prune() must look at

    def promote(u):
        if out[u] is None:
            out[u] = set(raw_out(u))
            inn[u] = set(raw_inn(u))

    def add(a):
        promote(a[0])
        promote(a[3])
        out[a[0]].add(a)
        inn[a[3]].add(a)

    def discard(a):
        u, v = a[0], a[3]
        promote(u)
        promote(v)
        out[u].discard(a)
        inn[v].discard(a)
        touched.append(u)
        touched.append(v)

    def kill(u):
        alive[u] = False
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
            if out[u] is None:
                no_in, no_out = not srcs[u], not kind[u]
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
            exits = out[u] if out[u] is not None else raw_out(u)
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

    if not rg.finals:  # the cause of either failure below
        raise TauReductionError("no final marking reachable from the initial marking")
    if not alive[m0]:
        raise TauReductionError("initial marking has no behavior after reduction")
    live_finals = {f for f in finals if alive[f]}
    if not live_finals:
        raise TauReductionError("no final marking survives reduction")

    keep = [u for u in range(n) if alive[u]]
    remap = [-1] * n
    for mid, u in enumerate(keep):
        remap[u] = mid
    # a hot marking's arc set becomes its row, with kinds numbered after the
    # raw ones; a cold marking keeps its raw row, which has no silent arc and
    # no arc into a removed marking
    kind, tgt = list(kind), list(tgt)  # the raw graph keeps its own rows
    extra: dict = {}  # (label, trail) -> kind
    for u in keep:
        if out[u] is not None:
            arcs = list(out[u])
            assert all(a[1] != TAU for a in arcs)
            kind[u] = [extra.setdefault(a[1:3], len(labels) + len(extra)) for a in arcs]
            tgt[u] = [a[3] for a in arcs]
    rows = _Rows(labels + [label for label, _ in extra],
                 rows.trails + [trail for _, trail in extra], kind, tgt, keep, remap)
    return ReachabilityGraph(net, tuple([rg.markings[u] for u in keep]), remap[m0],
                             frozenset(remap[f] for f in live_finals), reduced=True, rows=rows)


def _shares_a_visible_label(net: SystemNet) -> bool:
    labels = [t.label for t in net.transitions if t.label != TAU]
    return len(set(labels)) < len(labels)


def rg_to_dot(rg: ReachabilityGraph) -> str:
    lines = ["digraph rg {", "  rankdir=LR;"]
    for mid in range(len(rg.markings)):
        shape = "doublecircle" if mid in rg.finals else "ellipse"
        lines.append('  m%d [shape=%s, label="%s"];' % (mid, shape, rg.marking_name(mid)))
    for a in rg.arcs:
        text = rg.net.table.text(a.label)
        if a.trail:
            text += " (%s)" % ",".join(rg.net.transitions[t].name for t in a.trail)
        lines.append('  m%d -> m%d [label="%s"];' % (a.src, a.tgt, text))
    lines.append("}")
    return "\n".join(lines)
