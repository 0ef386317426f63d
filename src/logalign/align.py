"""Optimal alignments between log traces and a tau-free reachability graph.

Three synchronization operations relate a trace to the graph: ``match``
takes the next trace event and a graph arc with the same label, ``lhide``
takes only the event (one the model cannot mirror) and ``rhide`` takes only
a graph arc (a task the log is missing).  The cost of an alignment is the
number of hide operations on visible labels; on a tau-free graph that is
simply the number of hides.

``align_one_optimal`` runs an A* search that returns a single cheapest
proper alignment and breaks ties deterministically: lowest estimated total
cost first, then the longer candidate, then the operation precedence
match > rhide > lhide of the last move, then the lexicographic order of its
label, and finally the full move sequence.  A push costs one heap tuple: a
search node is made only when an entry is popped and settles its state, and
``Move`` objects only along the returned path.

``all_optimal_alignments`` computes every cost-minimal proper alignment of
one trace.  One bounded A* sweep settles each state on a cheapest path at
its exact distance and records the tight moves into it (the distance grows
by exactly the move's cost); a closure over those moves from the cheapest
goals finds the states on a cheapest path and the moves between them, and
one pass over the states in decreasing (distance, position) order orders
each state's moves and counts the optima of the resulting edge DAG.  Both
searches keep a move unbuilt, as ``(op, arc)`` or ``(OP_LHIDE, label)``,
and make a ``Move`` only for a move they return.

Both searches cache the future-label estimate per trace, keyed on the trace
position and the marking's future-label class (``FutureLabelTable.classes``)
rather than the marking: markings of one class share every estimate, so a
search evaluates ``h`` at most once per (position, class) and every state
still gets the value it would get on its own.  The cache pays where classes
merge many markings, as on looping nets; where each marking is its own class
(a parallel block) it seldom hits, and each estimate is a closed form over
the entry's own labels, given the remaining size ``len(trace) - pos``.
"""

from __future__ import annotations

import heapq
import time
from itertools import islice
from typing import NamedTuple, Optional

from .errors import LogAlignError, SearchBudgetError
from .heuristic import FutureLabelTable, precompute_future_labels
from .logs import TAU
from .reachability import ReachabilityGraph

OP_MATCH = 0
OP_RHIDE = 1
OP_LHIDE = 2
OP_NAMES = {OP_MATCH: "match", OP_RHIDE: "rhide", OP_LHIDE: "lhide"}

DEFAULT_NODE_BUDGET = 2_000_000
_INF = float("inf")


class Move(NamedTuple):
    op: int
    label: int
    trail: tuple[int, ...]
    rg_src: Optional[int]
    rg_tgt: Optional[int]


class Alignment(NamedTuple):
    moves: tuple[Move, ...]
    cost: int

    def log_projection(self) -> tuple[int, ...]:
        return tuple(m.label for m in self.moves if m.op != OP_RHIDE)

    def model_projection(self) -> tuple[Move, ...]:
        return tuple(m for m in self.moves if m.op != OP_LHIDE)


def alignment_cost(moves) -> int:
    """Number of non-match moves whose label is visible."""
    return sum(1 for m in moves if m.op != OP_MATCH and m.label != TAU)


def make_alignment(moves) -> Alignment:
    moves = tuple(moves)
    return Alignment(moves, alignment_cost(moves))


def is_proper(alignment: Alignment, trace, rg: ReachabilityGraph) -> bool:
    """Propriety: the alignment spells the trace and its model moves form a
    contiguous arc path from the initial to a final marking."""
    if alignment.log_projection() != tuple(trace):
        return False
    arcset = {(a.src, a.label, a.trail, a.tgt) for a in rg.arcs}
    model = alignment.model_projection()
    if not model:
        return rg.m0 in rg.finals
    if model[0].rg_src != rg.m0 or model[-1].rg_tgt not in rg.finals:
        return False
    for prev, nxt in zip(model, model[1:]):
        if prev.rg_tgt != nxt.rg_src:
            return False
    return all((m.rg_src, m.label, m.trail, m.rg_tgt) in arcset for m in model)


# ---------------------------------------------------------------------------
# shared search plumbing


class _Node:
    """A settled A* search state and the move that reached it.

    ``move`` is ``(op, arc)`` for a match or rhide and ``(OP_LHIDE, label)``
    for an lhide; ``moves()`` turns the path into ``Move`` objects.  ``key``
    is the node's own move key ``(op, label rank, target marking or -1,
    trail)``.  Two nodes order as their key sequences from the root do,
    compared lexicographically.  The heap compares only two distinct nodes
    of equal length (the parents of two entries of equal length), and on a
    graph from tau removal a node's children have distinct keys, so
    ``__lt__`` climbs both nodes to the children of their lowest common
    ancestor and compares those two keys.
    """

    __slots__ = ("parent", "move", "key", "length")

    def __init__(self, parent, move, key):
        self.parent = parent
        self.move = move
        self.key = key
        self.length = 0 if parent is None else parent.length + 1

    def __lt__(self, other):
        a, b = self, other
        while a.parent is not b.parent:
            a = a.parent
            b = b.parent
        return a.key < b.key

    def moves(self):
        out = []
        node = self
        while node.parent is not None:
            out.append(_move(*node.move))
            node = node.parent
        out.reverse()
        return out


def _move(op, x):
    """The ``Move`` of an unbuilt move ``(op, arc)`` or ``(OP_LHIDE, label)``."""
    if op == OP_LHIDE:
        return Move(OP_LHIDE, x, (), None, None)
    return Move(op, x.label, x.trail, x.src, x.tgt)


def future_table(rg: ReachabilityGraph) -> FutureLabelTable:
    """The graph's future-label table, built on the first call and kept on
    the graph (the table refers back to it weakly); both searches read it."""
    table = getattr(rg, "_future_table", None)
    if table is None:
        table = precompute_future_labels(rg)
        rg._future_table = table
    return table


def table_off_the_clock(rg: ReachabilityGraph, deadline: Optional[float],
                        global_deadline: Optional[float]) -> Optional[float]:
    """``deadline`` for a search of ``rg``, after building the graph's
    future-label table if it is not built yet: moved on by the time the
    build took, but not past ``global_deadline``, so the one-time build is
    not paid from one trace's own timeout.  Without a deadline the search
    builds the table itself."""
    if deadline is None or getattr(rg, "_future_table", None) is not None:
        return deadline
    start = time.monotonic()
    future_table(rg)
    deadline += time.monotonic() - start
    return deadline if global_deadline is None else min(deadline, global_deadline)


def _remaining_counts(trace) -> list[dict[int, int]]:
    rem: list[dict[int, int]] = [dict() for _ in range(len(trace) + 1)]
    acc: dict[int, int] = {}
    for i in range(len(trace) - 1, -1, -1):
        acc = dict(acc)
        acc[trace[i]] = acc.get(trace[i], 0) + 1
        rem[i] = acc
    return rem


class _Budget:
    """Counts the pops of one search against its node budget, and reads the
    clock against its deadline on the first pop and every 256 after it."""

    __slots__ = ("budget", "spent", "deadline")

    def __init__(self, node_budget, deadline):
        self.budget = node_budget
        self.spent = 0
        self.deadline = deadline

    def spend(self):
        self.spent += 1
        if self.spent > self.budget:
            raise SearchBudgetError("alignment search exceeded its node budget")
        if self.deadline is not None and self.spent % 256 == 1 and time.monotonic() > self.deadline:
            raise SearchBudgetError("alignment search exceeded its deadline")


# ---------------------------------------------------------------------------
# one optimal alignment (deterministic A*)


def align_one_optimal(trace, rg: ReachabilityGraph, *,
                      node_budget: int = DEFAULT_NODE_BUDGET,
                      deadline: Optional[float] = None,
                      stats: Optional[dict] = None) -> Alignment:
    """Single cheapest proper alignment of a trace against the graph.

    A heap entry is ``(rho, -length, op, label rank, parent, target marking
    or -1, trail, arc or label, pos, mid, g)``; a ``_Node`` is made only when
    an entry settles its search state.  Entries that tie on the first four
    fields and share a parent compare by the rest of their move key; with
    different parents (of equal length) they compare by the parents' order
    (``_Node``), which is the order of their own key sequences from the
    root: no two nodes share one, as a state settles only at a strictly
    lower ``g``.  Search states ``(pos, mid)`` are settled under
    ``pos * len(rg.markings) + mid``; their estimates are cached under
    ``pos * n_classes + classes[mid]``, since markings of one future-label
    class share every estimate.
    """
    trace = tuple(trace)
    n = len(trace)
    ftable = future_table(rg)
    h = ftable.h
    classes = ftable.classes
    ncls = ftable.n_classes
    rem = _remaining_counts(trace)
    rank = rg.net.table.rank()
    out = rg.out
    finals = rg.finals
    width = len(rg.markings)
    budget = _Budget(node_budget, deadline)
    push = heapq.heappush
    hcache: dict[int, int] = {}
    settled: dict[int, int] = {}

    rho_max = n + rg.min_visible_skips()
    h0 = hcache[classes[rg.m0]] = h(rem[0], rg.m0, n)
    heap = [(h0, 0, OP_MATCH, 0, None, -1, (), None, 0, rg.m0, 0)]
    max_rho = 0
    pops = 0
    while heap:
        rho, _, op, lrank, parent, tgt, trail, x, pos, mid, g = heapq.heappop(heap)
        skey = pos * width + mid
        prior = settled.get(skey)
        if prior is not None and prior <= g:
            continue
        settled[skey] = g
        pops += 1
        budget.spend()
        if rho > max_rho:
            max_rho = rho
        if parent is None:
            node = _Node(None, None, None)
        else:
            node = _Node(parent, (op, x), (op, lrank, tgt, trail))
        if pos == n and mid in finals:
            if stats is not None:
                stats["pops"] = pops
                stats["max_rho_popped"] = max_rho
            return make_alignment(node.moves())
        depth = -node.length - 1
        ng = g + 1
        row = out[mid]
        if pos < n:
            label = trace[pos]
            lr = rank[label]
            npos = pos + 1
            base = npos * width
            hbase = npos * ncls
            for a in row:
                if a.label != label:
                    continue
                nmid = a.tgt
                prior = settled.get(base + nmid)
                if prior is not None and prior <= g:
                    continue
                k = hbase + classes[nmid]
                hv = hcache.get(k)
                if hv is None:
                    hv = hcache[k] = h(rem[npos], nmid, n - npos)
                if g + hv <= rho_max:
                    push(heap, (g + hv, depth, OP_MATCH, lr, node, nmid, a.trail, a, npos, nmid, g))
            prior = settled.get(base + mid)
            if prior is None or prior > ng:
                k = hbase + classes[mid]
                hv = hcache.get(k)
                if hv is None:
                    hv = hcache[k] = h(rem[npos], mid, n - npos)
                if ng + hv <= rho_max:
                    push(heap, (ng + hv, depth, OP_LHIDE, lr, node, -1, (), label, npos, mid, ng))
        base = pos * width
        hbase = pos * ncls
        for a in row:
            nmid = a.tgt
            prior = settled.get(base + nmid)
            if prior is not None and prior <= ng:
                continue
            k = hbase + classes[nmid]
            hv = hcache.get(k)
            if hv is None:
                hv = hcache[k] = h(rem[pos], nmid, n - pos)
            if ng + hv <= rho_max:
                push(heap, (ng + hv, depth, OP_RHIDE, rank[a.label], node, nmid, a.trail, a, pos, nmid, ng))
    raise LogAlignError("no proper alignment exists for the trace")


# ---------------------------------------------------------------------------
# all optimal alignments (one bounded sweep that keeps its tight moves)


class OptimalSet(NamedTuple):
    """Every cost-minimal proper alignment of one trace.

    ``edges`` maps a search state ``(pos, mid)`` to its ordered
    ``(Move, next state)`` pairs that lie on some cheapest path; they form a
    DAG whose root-to-leaf paths from ``root`` are exactly the optima, and
    ``n_optimal`` is their number.
    """

    cost: int
    edges: dict
    root: tuple
    n_optimal: int

    def alignments(self, limit: Optional[int] = None) -> tuple[Alignment, ...]:
        """The first ``limit`` optima (all of them by default), depth first
        in edge order."""
        return tuple(islice(_optimal_paths(self.edges, self.root), limit))


def all_optimal_alignments(trace, rg: ReachabilityGraph, *,
                           node_budget: int = DEFAULT_NODE_BUDGET,
                           deadline: Optional[float] = None) -> OptimalSet:
    """Every cost-minimal proper alignment of a trace against the graph.

    Raises ``SearchBudgetError`` when the sweep and the closure over its
    tight moves exceed the node budget or the deadline, as
    ``align_one_optimal`` does.
    """
    trace = tuple(trace)
    n = len(trace)
    ftable = future_table(rg)
    classes = ftable.classes
    ncls = ftable.n_classes
    rem = _remaining_counts(trace)
    budget = _Budget(node_budget, deadline)
    hcache: dict[int, int] = {}  # keyed like the cache of align_one_optimal

    goals = {(n, f) for f in rg.finals}
    bound = n + rg.min_visible_skips()

    # forward sweep: exact cheapest cost to every state on some optimal path,
    # and the steps (parent state, op, arc or label) that reach it at that cost
    dist: dict[tuple[int, int], int] = {}
    tight: dict[tuple[int, int], list] = {}
    heap: list = []

    def push_fwd(key, g, step):
        d = dist.get(key, _INF)
        if g < d:
            pos, mid = key
            k = pos * ncls + classes[mid]
            hv = hcache.get(k)
            if hv is None:
                hv = hcache[k] = ftable.h(rem[pos], mid, n - pos)
            f = g + hv
            if f <= bound:
                dist[key] = g
                tight[key] = [step]
                heapq.heappush(heap, (f, g, key))
        elif g == d:
            tight[key].append(step)

    root = (0, rg.m0)
    push_fwd(root, 0, None)
    if root in tight:
        tight[root] = []  # the root has no step
    while heap:
        f, g, key = heapq.heappop(heap)
        if g > dist[key] or f > bound:
            continue
        budget.spend()
        if key in goals:
            bound = g  # the first goal popped is a cheapest one
            continue
        pos, mid = key
        row = rg.out[mid]
        if pos < n:
            label = trace[pos]
            for a in row:
                if a.label == label:
                    push_fwd((pos + 1, a.tgt), g, (key, OP_MATCH, a))
            push_fwd((pos + 1, mid), g + 1, (key, OP_LHIDE, label))
        for a in row:
            push_fwd((pos, a.tgt), g + 1, (key, OP_RHIDE, a))

    # closure over the steps from the cheapest goals, one spend per state:
    # each step becomes an edge of its parent
    ends = [k for k in goals if dist.get(k) == bound]
    if not ends:
        raise LogAlignError("no proper alignment exists for the trace")
    edges: dict[tuple[int, int], list] = {}
    stack = list(ends)
    while stack:
        key = stack.pop()
        budget.spend()
        for pkey, op, x in tight[key]:
            nexts = edges.get(pkey)
            if nexts is None:
                nexts = edges[pkey] = []
                stack.append(pkey)
            nexts.append((_move(op, x), key))

    # every move raises (dist, pos), so successors come first in this order
    rank = rg.net.table.rank()
    paths = dict.fromkeys(ends, 1)
    for key in sorted(edges, key=lambda k: (dist[k], k[0]), reverse=True):
        nexts = edges[key]
        nexts.sort(key=lambda mn: (mn[0].op, rank[mn[0].label], mn[0].trail, mn[1]))
        edges[key] = tuple(nexts)
        paths[key] = sum(paths[nkey] for _, nkey in nexts)
    return OptimalSet(bound, dict(sorted(edges.items())), root, paths[root])


def _optimal_paths(edges, root):
    """Every root-to-leaf path of the optimal edges, depth first in edge order."""
    if not edges.get(root):
        yield make_alignment(())
        return
    moves: list[Move] = []
    stack = [iter(edges[root])]
    while stack:
        step = next(stack[-1], None)
        if step is None:
            stack.pop()
            if moves:
                moves.pop()
            continue
        move, nkey = step
        moves.append(move)
        nexts = edges.get(nkey, ())
        if nexts:
            stack.append(iter(nexts))
        else:
            yield make_alignment(moves)
            moves.pop()
