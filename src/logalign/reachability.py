"""Reachability graphs of 1-bounded system nets and silent-arc removal.

``build_rg`` expands a net breadth-first into its marking graph.
``remove_tau`` / ``remove_tau_extended`` rewrite the graph so that no arc
carries the silent label while the visible trace language between the
initial and final markings is preserved.  In extended mode every rewritten
arc remembers which silent transitions it absorbed (its tau trail), which
the recomposition stage uses to detect hidden label conflicts.
"""

from __future__ import annotations

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
    trail: tuple[int, ...]  # indices of absorbed silent transitions
    tgt: int
    transition: int  # firing transition in a raw graph, -1 once rewritten


@dataclass
class ReachabilityGraph:
    net: SystemNet
    markings: tuple[int, ...]  # bitmasks, indexed by marking id
    m0: int  # marking id
    finals: frozenset[int]  # marking ids
    arcs: tuple[Arc, ...]
    reduced: bool = False
    warnings: tuple[str, ...] = ()
    out: tuple[tuple[int, ...], ...] = field(default=(), repr=False)
    inn: tuple[tuple[int, ...], ...] = field(default=(), repr=False)

    def __post_init__(self):
        if not self.out:
            o: list[list[int]] = [[] for _ in self.markings]
            i: list[list[int]] = [[] for _ in self.markings]
            for k, a in enumerate(self.arcs):
                o[a.src].append(k)
                i[a.tgt].append(k)
            self.out = tuple(tuple(x) for x in o)
            self.inn = tuple(tuple(x) for x in i)

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
            for k in self.out[u]:
                a = self.arcs[k]
                if a.tgt not in dist:
                    dist[a.tgt] = dist[u] + 1
                    if a.tgt in self.finals:
                        return dist[a.tgt]
                    queue.append(a.tgt)
        raise TauReductionError("no final marking reachable from the initial marking")


def min_visible_skips_net(net: SystemNet, cap: int = DEFAULT_MARKING_CAP) -> int:
    """Shortest number of visible firings from m0 to a final marking,
    computed directly on the net (0/1 breadth-first search over markings)."""
    from .logs import TAU as _TAU

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
            w = 0 if net.transitions[t].label == _TAU else 1
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
    index = {net.m0: 0}
    markings = [net.m0]
    arcs: list[Arc] = []
    fired = set()
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
            fired.add(t)
            m2 = (m & ~net.pre[t]) | net.post[t]
            tid = index.get(m2)
            if tid is None:
                tid = len(markings)
                if tid >= cap:
                    raise StateSpaceCapError("marking cap %d exceeded" % cap)
                index[m2] = tid
                markings.append(m2)
                queue.append(tid)
            arcs.append(Arc(mid, net.transitions[t].label, (), tid, t))
    finals = frozenset(index[f] for f in net.finals if f in index)
    warnings = []
    for t in range(ntrans):
        if t not in fired:
            warnings.append("transition %s is dead" % net.transitions[t].name)
    if not finals:
        warnings.append("final marking unreachable")
    return ReachabilityGraph(net, tuple(markings), 0, finals, tuple(arcs),
                             warnings=tuple(warnings))


def remove_tau(rg: ReachabilityGraph) -> ReachabilityGraph:
    return _reduce(rg, extended=False)


def remove_tau_extended(rg: ReachabilityGraph) -> ReachabilityGraph:
    """As remove_tau, but replacement arcs carry the absorbed tau indices."""
    return _reduce(rg, extended=True)


def _reduce(rg: ReachabilityGraph, extended: bool) -> ReachabilityGraph:
    net = rg.net
    n = len(rg.markings)
    # working arc = (src, label, trail, tgt); raw tau arcs seed their trail
    # with the silent transition's index so extended labels stay traceable
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
        trail = (a.transition,) if (extended and a.label == TAU and a.transition >= 0) else a.trail
        add((a.src, a.label, trail, a.tgt))
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
    new_arcs = tuple(Arc(s, l, tr, t, -1) for s, l, tr, t in flat)
    assert all(a.label != TAU for a in new_arcs)
    return ReachabilityGraph(net, tuple(new_markings), remap[rg.m0],
                             frozenset(remap[f] for f in live_finals), new_arcs,
                             reduced=True, warnings=rg.warnings)


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
