"""Reachability graphs of 1-bounded system nets and silent-arc removal.

``build_rg`` expands a net breadth-first into its marking graph.
``remove_tau`` / ``remove_tau_extended`` rewrite the graph so that no arc
carries the silent label while the visible trace language between the
initial and final markings is preserved.  An arc's trail lists the silent
transitions it stands for: a raw silent arc's trail is its own transition,
a raw visible arc's is empty.  In extended mode every rewritten arc keeps
the trails it absorbed (its tau trail), which the recomposition stage uses
to detect hidden label conflicts; plain tau removal drops them.

A graph's ``out[m]`` row holds the ``Arc`` objects of ``arcs`` that leave
marking ``m``, in ``arcs`` order.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import Not1BoundedError, StateSpaceCapError, TauReductionError
from .logs import TAU
from .petri import SystemNet

DEFAULT_MARKING_CAP = 5_000_000


class Arc(NamedTuple):
    src: int
    label: int
    trail: tuple[int, ...]  # silent transitions: a raw silent arc's own, or those absorbed
    tgt: int


@dataclass
class ReachabilityGraph:
    net: SystemNet
    markings: tuple[int, ...]  # bitmasks, indexed by marking id
    m0: int  # marking id
    finals: frozenset[int]  # marking ids
    arcs: tuple[Arc, ...]
    reduced: bool = False
    out: tuple[tuple[Arc, ...], ...] = field(default=(), repr=False)

    def __post_init__(self):
        if not self.out:
            o: list[list[Arc]] = [[] for _ in self.markings]
            for a in self.arcs:
                o[a.src].append(a)
            self.out = tuple(tuple(x) for x in o)

    def size(self) -> int:
        return len(self.markings) + len(self.arcs)

    def marking_name(self, mid: int) -> str:
        return self.net.marking_name(self.markings[mid])

    def min_visible_skips(self) -> int:
        """Arc length of the shortest path from m0 to a final marking,
        searched once per graph."""
        skips = getattr(self, "_min_visible_skips", None)
        if skips is None:
            skips = self._min_visible_skips = self._shortest_final_distance()
        return skips

    def _shortest_final_distance(self) -> int:
        if self.m0 in self.finals:
            return 0
        dist = {self.m0: 0}
        queue = deque([self.m0])
        while queue:
            u = queue.popleft()
            for a in self.out[u]:
                if a.tgt not in dist:
                    dist[a.tgt] = dist[u] + 1
                    if a.tgt in self.finals:
                        return dist[a.tgt]
                    queue.append(a.tgt)
        raise TauReductionError("no final marking reachable from the initial marking")


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
    # a silent arc's trail is its own transition
    firing = [(t, pre, ~pre, net.post[t], tr.label, (t,) if tr.label == TAU else ())
              for t, (pre, tr) in enumerate(zip(net.pre, net.transitions))]
    index = {net.m0: 0}
    markings = [net.m0]
    arcs: list[Arc] = []
    out: list[tuple[Arc, ...]] = []
    new = tuple.__new__  # Arc(...) without the NamedTuple constructor's call overhead
    # breadth-first, so each marking's arcs form one contiguous run
    queue = deque([0])
    while queue:
        mid = queue.popleft()
        m = markings[mid]
        row = []
        for t, pre, keep, post, label, trail in firing:
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
                queue.append(tid)
            row.append(new(Arc, (mid, label, trail, tid)))
        arcs += row
        out.append(tuple(row))
    finals = frozenset(index[f] for f in net.finals if f in index)
    return ReachabilityGraph(net, tuple(markings), 0, finals, tuple(arcs), out=tuple(out))


def remove_tau(rg: ReachabilityGraph) -> ReachabilityGraph:
    return _reduce(rg, extended=False)


def remove_tau_extended(rg: ReachabilityGraph) -> ReachabilityGraph:
    """As remove_tau, but replacement arcs carry the absorbed tau indices."""
    return _reduce(rg, extended=True)


def _reduce(rg: ReachabilityGraph, extended: bool) -> ReachabilityGraph:
    """Rewrite ``rg`` without silent arcs.

    The rewrite works on arcs ``(src, label, trail, tgt)``.  Only the markings
    the silent arcs touch get explicit arc sets ("hot" markings): the tau
    arcs' sources and targets, the final markings, and every marking an
    added or redirected arc starts or ends at, made hot just before that
    arc is added.  Every other marking is "cold": its arcs are its raw arcs
    whose other end is still alive, so it only keeps two counters.  Phases,
    orders and tie-breaks are those of a rewrite with arc sets for every
    marking, so the result is the same graph.  The raw graph's predecessor
    rows are derived here from ``rg.arcs``; no graph carries them.
    """
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
    if _shares_a_visible_label(net):
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
    return ReachabilityGraph(net, tuple(new_markings), remap[m0],
                             frozenset(remap[f] for f in live_finals), tuple(arcs),
                             reduced=True, out=tuple(new_out))


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
