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
label, and finally the full move sequence.  A push costs one tuple, and a
heap insertion only if its estimate is at most the open one, the estimate
of the entries being expanded: any other entry is parked in a list for its
estimate (Dial's buckets), and the least list is heapified when the heap
runs dry.  The heap key is a total order, a child estimated below the open
estimate goes to the heap, and no parked entry can be the least while the
heap holds one, so entries pop in the order one heap of every entry pops
them.  A search node is made only when an entry is popped and settles its
state, and ``Move`` objects only along the returned path.

``all_optimal_alignments`` computes every cost-minimal proper alignment of
one trace.  One bounded A* sweep, over search states coded as one int each
(``pos * len(rg.succ) + mid``), settles each state on a cheapest path at
its exact distance and records the tight moves into it (the distance grows
by exactly the move's cost).  It parks entries as A* does, and records a
step in ``dist`` and ``tight`` when the step arrives, parked or not.  Its
bound falls to the optimal cost when the first goal pops, which is at the
open estimate, so the sweep stops when the least parked estimate is above
its bound and pops nothing above the optimal cost: an entry estimated
above it costs a list append, not a heap insertion.  A closure over the
tight moves from the cheapest goals finds the states on a cheapest path and
keeps each one's moves out to such states, and one pass over those states
in decreasing (distance, position) order counts the optima: the paths from
a state are the sum of those from its children, and the count is the
root's.  No ``Move`` is made and no state's moves are sorted for the
count.  An ``OptimalSet`` sorts a state's moves into edge order only when
a reader first reaches it: ``alignments()`` walks them, making ``Move``
objects only for the optima it lists, and ``edges`` lays them out as a DAG
of ``Move`` objects.

Both searches read the graph's successor index (``rg.succ``), whose shared
``Successor`` entries give each arc's target, trail, label and label rank,
and keep a move unbuilt, as its op and the ``Successor`` it took (an lhide
takes ``(-1, (), label)``, which compares like one).  A ``Move`` is made
only for a move they return, from that entry and the source and target
markings of its search states.  The index keeps each row in storage order,
and neither search depends on it: A*'s heap key and the edge order (op,
label rank, trail, next state) are total orders of their own.

Both searches estimate a set class (``heuristic``) inline, as ``size +
|C| - 2 * |C & support|`` from the marking's mask in
``FutureLabelTable.set_masks``, given the remaining size ``len(trace) -
pos`` and the mask of labels still in the trace (``FutureLabelTable.
suffixes`` gives the remaining labels and their mask for every position):
two popcounts, as on every class of a parallel block.  Any other class's
estimate is a scan of its entries, which they cache per trace, keyed on the
trace position and the marking's future-label class
(``FutureLabelTable.classes``) rather than the marking: markings of one
class share every estimate, so a search calls ``h`` at most once per
(position, class) and every state still gets the value it would get on its
own.  The cache pays where classes merge many markings, as on looping
nets.  Ranks are the label table's (``LabelTable.rank``), whose older
labels keep their order when a label is interned after the index is built,
so no search takes a snapshot of its own.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
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
    arcset = {(u, s.label, s.trail, s.tgt) for u, row in enumerate(rg.succ) for s in row}
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
    """A settled A* search state: its marking ``mid``, and the move that
    reached it, as its ``op``, label rank ``lrank`` and ``succ`` entry.

    ``moves()`` turns the path into ``Move`` objects.  The node's own move
    key is ``(op, lrank, succ)``, and ``succ`` compares by target, then
    trail.  Two nodes order as their key sequences from the root do,
    compared lexicographically.  The heap compares only two distinct nodes
    of equal length (the parents of two entries of equal length), and on a
    graph from tau removal a node's children have distinct keys, so
    ``__lt__`` climbs both nodes to the children of their lowest common
    ancestor and compares those two keys.  So nodes order by their key
    sequences alone, whatever order the graph's rows push children in.
    """

    __slots__ = ("parent", "op", "lrank", "succ", "mid")

    def __init__(self, parent, op, lrank, succ, mid):
        self.parent = parent
        self.op = op
        self.lrank = lrank
        self.succ = succ
        self.mid = mid

    def __lt__(self, other):
        a, b = self, other
        while a.parent is not b.parent:
            a = a.parent
            b = b.parent
        return (a.op, a.lrank, a.succ) < (b.op, b.lrank, b.succ)

    def moves(self):
        out = []
        node = self
        while node.parent is not None:
            out.append(_move(node.op, node.succ, node.parent.mid))
            node = node.parent
        out.reverse()
        return out


def _move(op, succ, src):
    """The ``Move`` of op taking entry ``succ`` from marking ``src``."""
    new = tuple.__new__  # a Move without the NamedTuple constructor's call overhead
    if op == OP_LHIDE:
        return new(Move, (OP_LHIDE, succ[2], (), None, None))
    return new(Move, (op, succ[2], succ[1], src, succ[0]))


def _lhides(trace) -> list[tuple]:
    """Per trace position, the entry an lhide of its label takes."""
    return [(-1, (), label) for label in trace]


def future_table(rg: ReachabilityGraph, deadline: Optional[float] = None) -> FutureLabelTable:
    """The graph's future-label table, built on the first call and kept on
    the graph (the table refers back to it weakly); both searches read it.
    A build that passes ``deadline`` raises ``SearchBudgetError`` and keeps
    nothing."""
    table = getattr(rg, "_future_table", None)
    if table is None:
        table = precompute_future_labels(rg, deadline=deadline)
        rg._future_table = table
    return table


def future_table_built(rg: ReachabilityGraph) -> bool:
    """Whether ``future_table(rg)`` would return a table built before."""
    return getattr(rg, "_future_table", None) is not None


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

    A heap entry is ``(rho, -length, op, label rank, parent, successor
    entry, pos, mid, g)``; a ``_Node`` is made only when an entry settles
    its search state.  The entry's ``Successor`` compares by target, then
    trail, so entries that tie on the first four fields and share a parent
    compare by the rest of their move key; with different parents (of
    equal length) they compare by the parents' order (``_Node``), which is
    the order of their own key sequences from the root: no two nodes share
    one, as a state settles only at a strictly lower ``g``.  So the order
    in which a pop pushes its children does not matter.  Search states
    ``(pos, mid)`` are settled in one dict per trace position, by marking.
    A set class's estimate is computed inline from its mask
    (``FutureLabelTable.set_masks``); any other class's is cached in one
    dict per position, by class, since markings of one class share every
    estimate.

    The heap holds only the entries whose estimate ``rho`` is at most the
    open one; every other entry is parked in a list for its estimate, and
    the least list is heapified when the heap runs dry.  No parked entry
    can be the least while the heap holds one, and a child estimated below
    the open estimate goes to the heap, so entries pop in the order one heap
    of every entry would pop them.
    """
    trace = tuple(trace)
    n = len(trace)
    ftable = future_table(rg)
    h = ftable.h
    classes = ftable.classes
    masks = ftable.set_masks
    rem, sup = ftable.suffixes(trace)
    rows = rg.succ
    rank = rg.net.table.rank()
    lhides = _lhides(trace)
    finals = rg.finals
    budget = _Budget(node_budget, deadline)
    pop = heapq.heappop
    push = heapq.heappush
    settled: list[dict[int, int]] = [{} for _ in range(n + 1)]  # mid -> g
    hcache: list[dict[int, int]] = [{} for _ in range(n + 1)]  # scan class -> h

    rho_max = n + rg.min_visible_skips()
    h0 = hcache[0][classes[rg.m0]] = h(rem[0], rg.m0, n, sup[0])
    cur = h0  # the open estimate
    heap = [(h0, 0, OP_MATCH, 0, None, None, 0, rg.m0, 0)]
    parked: defaultdict[int, list] = defaultdict(list)  # estimate above cur -> its entries
    max_rho = 0
    pops = 0
    while True:
        while heap:
            rho, depth, op, lrank, parent, succ, pos, mid, g = pop(heap)
            here = settled[pos]
            prior = here.get(mid)
            if prior is not None and prior <= g:
                continue
            here[mid] = g
            pops += 1
            budget.spend()
            if rho > max_rho:
                max_rho = rho
            node = _Node(parent, op, lrank, succ, mid)
            if pos == n and mid in finals:
                if stats is not None:
                    stats["pops"] = pops
                    stats["max_rho_popped"] = max_rho
                return make_alignment(node.moves())
            depth -= 1  # the children's -length
            ng = g + 1
            label = None  # no match at the end of the trace
            if pos < n:
                # the lhide, then per arc its match (at the next position) and rhide
                label = trace[pos]
                npos = pos + 1
                there = settled[npos]
                nhcache = hcache[npos]
                nrem = rem[npos]
                nsup = sup[npos]
                left = n - npos
                prior = there.get(mid)
                if prior is None or prior > ng:
                    m = masks[mid]
                    if m is None:
                        c = classes[mid]
                        hv = nhcache.get(c)
                        if hv is None:
                            hv = nhcache[c] = h(nrem, mid, left, nsup)
                    else:
                        hv = left + m.bit_count() - 2 * (m & nsup).bit_count()
                    f = ng + hv
                    if f <= rho_max:
                        entry = (f, depth, OP_LHIDE, rank[label], node, lhides[pos], npos, mid, ng)
                        if f <= cur:
                            push(heap, entry)
                        else:
                            parked[f].append(entry)
            hcache_here = hcache[pos]
            size = n - pos
            support = sup[pos]
            for s in rows[mid]:
                nmid = s[0]
                m = masks[nmid]
                if s[2] == label:
                    prior = there.get(nmid)
                    if prior is None or prior > g:
                        if m is None:
                            c = classes[nmid]
                            hv = nhcache.get(c)
                            if hv is None:
                                hv = nhcache[c] = h(nrem, nmid, left, nsup)
                        else:
                            hv = left + m.bit_count() - 2 * (m & nsup).bit_count()
                        f = g + hv
                        if f <= rho_max:
                            entry = (f, depth, OP_MATCH, s[3], node, s, npos, nmid, g)
                            if f <= cur:
                                push(heap, entry)
                            else:
                                parked[f].append(entry)
                prior = here.get(nmid)
                if prior is not None and prior <= ng:
                    continue
                if m is None:
                    c = classes[nmid]
                    hv = hcache_here.get(c)
                    if hv is None:
                        hv = hcache_here[c] = h(rem[pos], nmid, size, support)
                else:
                    hv = size + m.bit_count() - 2 * (m & support).bit_count()
                f = ng + hv
                if f <= rho_max:
                    entry = (f, depth, OP_RHIDE, s[3], node, s, pos, nmid, ng)
                    if f <= cur:
                        push(heap, entry)
                    else:
                        parked[f].append(entry)
        if not parked:
            break
        cur = min(parked)
        heap = parked.pop(cur)
        heapq.heapify(heap)
    raise LogAlignError("no proper alignment exists for the trace")


# ---------------------------------------------------------------------------
# all optimal alignments (one bounded sweep that keeps its tight moves)


class OptimalSet:
    """Every cost-minimal proper alignment of one trace, as the tight steps
    out of each search state on a cheapest path (coded ``pos * width +
    mid``): their root-to-leaf paths from ``root`` are exactly the optima,
    and ``n_optimal`` is their number.

    A state's steps are put in edge order (op, label rank, trail, next
    state) when a reader first reaches it, and kept in that order:
    ``alignments()`` walks them depth first, making ``Move`` objects only
    for the optima it lists, and ``edges`` builds the whole DAG from them.
    """

    __slots__ = ("cost", "root", "n_optimal", "_out", "_width", "_rank")

    def __init__(self, cost: int, root: tuple, n_optimal: int, out: dict, width: int, rank):
        self.cost = cost
        self.root = root
        self.n_optimal = n_optimal
        self._out = out  # state -> its steps out, (op, successor entry, next state)
        self._width = width
        self._rank = rank

    def _ordered(self, state):
        """``state``'s steps out in edge order, as ``((op, successor entry,
        source marking), next state)``: sorted on the first call and kept."""
        steps = self._out[state]
        if steps.__class__ is list:
            rank = self._rank
            src = state % self._width
            steps = self._out[state] = tuple(
                ((op, succ, src), nxt) for op, _, _, nxt, succ in
                sorted([(op, rank[succ[2]], succ[1], nxt, succ) for op, succ, nxt in steps]))
        return steps

    @property
    def edges(self) -> dict:
        """Per state ``(pos, mid)`` with a step out, in ascending order, its
        ``(Move, next state)`` pairs in edge order; built on every read."""
        width = self._width
        return {divmod(state, width): tuple((_move(*step), divmod(nxt, width))
                                            for step, nxt in self._ordered(state))
                for state in sorted(self._out) if self._out[state]}

    def alignments(self, limit: Optional[int] = None) -> tuple[Alignment, ...]:
        """The first ``limit`` optima (all of them by default), depth first
        in edge order."""
        return tuple(islice(self._paths(), limit))

    def _paths(self):
        ordered = self._ordered
        path: list = []  # the steps to the state popped, unbuilt, after a None for the root
        stack = [(0, None, self.root[1])]  # (depth, step into a state, state), next on top
        while stack:
            depth, step, state = stack.pop()
            del path[depth:]
            path.append(step)
            nexts = ordered(state)
            if nexts:
                depth += 1
                stack.extend([(depth, step, nxt) for step, nxt in reversed(nexts)])
            else:
                yield make_alignment([_move(*step) for step in path[1:]])


def all_optimal_alignments(trace, rg: ReachabilityGraph, *,
                           node_budget: int = DEFAULT_NODE_BUDGET,
                           deadline: Optional[float] = None,
                           stats: Optional[dict] = None) -> OptimalSet:
    """Every cost-minimal proper alignment of a trace against the graph.

    The sweep codes a search state ``(pos, mid)`` as the int
    ``pos * len(rg.succ) + mid``, which orders as the pair does.  Its heap
    holds only the entries of estimate at most the open one, and parks the
    others per estimate, as ``align_one_optimal`` does; it stops when the
    least parked estimate is above its bound.  ``stats``, if given,
    receives ``unopened``: the number of estimates whose parked entries it
    never opened.  The returned set holds the count of optima and the tight
    steps out of every state on a cheapest path.

    Raises ``SearchBudgetError`` when the sweep and the closure over its
    tight moves exceed the node budget or the deadline, as
    ``align_one_optimal`` does.
    """
    trace = tuple(trace)
    n = len(trace)
    ftable = future_table(rg)
    h = ftable.h
    classes = ftable.classes
    masks = ftable.set_masks
    ncls = ftable.n_classes
    rem, sup = ftable.suffixes(trace)
    rows = rg.succ
    width = len(rows)
    lhides = _lhides(trace)
    budget = _Budget(node_budget, deadline)
    pop = heapq.heappop
    push = heapq.heappush
    hcache: dict[int, int] = {}  # pos * n_classes + scan class -> h

    goals = {n * width + f for f in rg.finals}
    bound = n + rg.min_visible_skips()

    # forward sweep: exact cheapest cost to every state on some optimal path,
    # and the steps (parent state, op, successor entry) that reach it at that
    # cost; a step is kept only if its estimate is within the bound, and its
    # entry waits in ``parked`` while its estimate is above the open one
    dist: dict[int, int] = {}
    tight: dict[int, list] = {}
    heap: list = []
    parked: defaultdict[int, list] = defaultdict(list)  # estimate above cur -> its entries
    root = rg.m0
    cur = hcache[classes[root]] = h(rem[0], root, n, sup[0])  # the open estimate
    if cur <= bound:
        dist[root] = 0
        tight[root] = []  # the root has no step
        heap.append((cur, 0, root))
    while True:
        while heap:
            _, g, state = pop(heap)
            if g > dist[state]:
                continue
            budget.spend()
            if state in goals:
                bound = g  # the first goal popped is a cheapest one
                continue
            pos, mid = divmod(state, width)
            row = rows[mid]
            ng = g + 1
            if pos < n:
                # the matches, then the lhide, all to the next position
                label = trace[pos]
                npos = pos + 1
                base = state - mid + width
                kbase = npos * ncls
                nrem = rem[npos]
                nsup = sup[npos]
                left = n - npos
                for s in row:
                    if s[2] == label:
                        nmid = s[0]
                        nxt = base + nmid
                        d = dist.get(nxt, _INF)
                        if g < d:
                            m = masks[nmid]
                            if m is None:
                                k = kbase + classes[nmid]
                                hv = hcache.get(k)
                                if hv is None:
                                    hv = hcache[k] = h(nrem, nmid, left, nsup)
                            else:
                                hv = left + m.bit_count() - 2 * (m & nsup).bit_count()
                            f = g + hv
                            if f <= bound:
                                dist[nxt] = g
                                tight[nxt] = [(state, OP_MATCH, s)]
                                if f <= cur:
                                    push(heap, (f, g, nxt))
                                else:
                                    parked[f].append((f, g, nxt))
                        elif g == d:
                            tight[nxt].append((state, OP_MATCH, s))
                nxt = base + mid
                d = dist.get(nxt, _INF)
                if ng < d:
                    m = masks[mid]
                    if m is None:
                        k = kbase + classes[mid]
                        hv = hcache.get(k)
                        if hv is None:
                            hv = hcache[k] = h(nrem, mid, left, nsup)
                    else:
                        hv = left + m.bit_count() - 2 * (m & nsup).bit_count()
                    f = ng + hv
                    if f <= bound:
                        dist[nxt] = ng
                        tight[nxt] = [(state, OP_LHIDE, lhides[pos])]
                        if f <= cur:
                            push(heap, (f, ng, nxt))
                        else:
                            parked[f].append((f, ng, nxt))
                elif ng == d:
                    tight[nxt].append((state, OP_LHIDE, lhides[pos]))
            # the rhides, at this position
            base = state - mid
            kbase = pos * ncls
            size = n - pos
            support = sup[pos]
            for s in row:
                nmid = s[0]
                nxt = base + nmid
                d = dist.get(nxt, _INF)
                if ng < d:
                    m = masks[nmid]
                    if m is None:
                        k = kbase + classes[nmid]
                        hv = hcache.get(k)
                        if hv is None:
                            hv = hcache[k] = h(rem[pos], nmid, size, support)
                    else:
                        hv = size + m.bit_count() - 2 * (m & support).bit_count()
                    f = ng + hv
                    if f <= bound:
                        dist[nxt] = ng
                        tight[nxt] = [(state, OP_RHIDE, s)]
                        if f <= cur:
                            push(heap, (f, ng, nxt))
                        else:
                            parked[f].append((f, ng, nxt))
                elif ng == d:
                    tight[nxt].append((state, OP_RHIDE, s))
        if not parked:
            break
        cur = min(parked)
        if cur > bound:
            break  # every entry left is above the optimal cost
        heap = parked.pop(cur)
        heapq.heapify(heap)
    if stats is not None:
        stats["unopened"] = len(parked)

    # closure over the steps from the cheapest goals, one spend per state:
    # every state on a cheapest path, with its steps out to such states
    ends = [state for state in goals if dist.get(state) == bound]
    if not ends:
        raise LogAlignError("no proper alignment exists for the trace")
    out: dict[int, list] = {state: [] for state in ends}
    stack = list(ends)
    while stack:
        state = stack.pop()
        budget.spend()
        for parent, op, succ in tight[state]:
            steps = out.get(parent)
            if steps is None:
                out[parent] = [(op, succ, state)]
                stack.append(parent)
            else:
                steps.append((op, succ, state))

    # every move raises (dist, pos), so a state's children come first in
    # descending order; the cheapest goals are the states with no step out
    stride = (n + 1) * width
    paths: dict[int, int] = {}
    for key in sorted([dist[state] * stride + state for state in out], reverse=True):
        state = key % stride
        steps = out[state]
        paths[state] = sum([paths[nxt] for _, _, nxt in steps]) if steps else 1
    return OptimalSet(bound, (0, root), paths[root], out, width, rg.net.table.rank())
