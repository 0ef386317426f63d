"""Divide-and-conquer alignment along S-components and its recomposition.

Each trace is projected onto every component's alphabet and aligned against
that component's (extended-label, tau-free) reachability graph.  No log
automaton is involved, so the aligner takes any trace over the net's labels.
The projected alignments are then replayed in parallel over the original trace:
a log event composes when every component owning its label proposes the
same operation for it, and components catch up beforehand through jointly
agreed model skips.  Disagreements (on order, on operation, or on the tau
history hidden inside an extended label) abort the replay and the trace
falls back to a monolithic search on the full reachability graph.

Recomposed alignments are proper but not necessarily optimal; they never
cost less than a monolithic optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .align import (OP_LHIDE, OP_MATCH, OP_RHIDE, Alignment, Move, align_one_optimal,
                    make_alignment)
from .errors import LogAlignError, SearchBudgetError, StateSpaceCapError
from .invariants import SComponentDecomposition, decompose
from .logs import TAU
from .reachability import ReachabilityGraph, build_rg, remove_tau_extended

ORDER_CONFLICT = "order-conflict"
OPERATION_CONFLICT = "operation-conflict"
EXTENDED_LABEL_CONFLICT = "extended-label-conflict"


@dataclass(frozen=True)
class RecompositionOutcome:
    trace: tuple[int, ...]
    alignment: Optional[Alignment]
    conflict: Optional[str]
    fallback_used: bool
    error: Optional[str] = None


class _Lane:
    """Per-component replay cursor over a projected alignment."""

    __slots__ = ("moves", "pos")

    def __init__(self, moves):
        self.moves = moves
        self.pos = 0

    def peek(self):
        return self.moves[self.pos] if self.pos < len(self.moves) else None


class SComponentAligner:
    """Aligns traces against one net through its S-components.

    ``full_rg`` is the net's tau-free monolithic graph, which conflicting
    traces fall back to, or the StateSpaceCapError that stopped its build;
    in that case only the conflicting traces fail.
    """

    def __init__(self, net, decomposition: Optional[SComponentDecomposition] = None,
                 *, full_rg: ReachabilityGraph | StateSpaceCapError):
        self.net = net
        self.decomposition = decomposition if decomposition is not None else decompose(net)
        self.full_rg = full_rg
        self.rank = net.table.rank()
        self.components = [(comp, remove_tau_extended(build_rg(comp.net)))
                           for comp in self.decomposition.components]
        # label -> indices of the lanes whose alphabet holds it, ascending
        self.owners: dict[int, tuple[int, ...]] = {}
        for idx, (comp, _) in enumerate(self.components):
            for label in comp.alphabet:
                self.owners[label] = self.owners.get(label, ()) + (idx,)
        self._proj_cache: dict = {}

    def component_rgs(self) -> list[ReachabilityGraph]:
        return [rg for _, rg in self.components]

    # -- per-component projected alignments ------------------------------

    def _lane_moves(self, idx: int, projected: tuple[int, ...], deadline) -> tuple:
        key = (idx, projected)
        hit = self._proj_cache.get(key)
        if hit is not None:
            return hit
        comp, rg = self.components[idx]
        alignment = align_one_optimal(projected, rg=rg, deadline=deadline)
        moves = tuple(
            (m.op, m.label, tuple(comp.transition_ids[x] for x in m.trail), m.rg_tgt)
            for m in alignment.moves)
        self._proj_cache[key] = moves
        return moves

    # -- the replay itself ------------------------------------------------

    def align_trace(self, trace, deadline: Optional[float] = None) -> RecompositionOutcome:
        trace = tuple(trace)
        try:
            lanes = []
            for idx, (comp, _) in enumerate(self.components):
                projected = tuple(l for l in trace if l in comp.alphabet)
                lanes.append(_Lane(self._lane_moves(idx, projected, deadline)))
        except SearchBudgetError as exc:
            return RecompositionOutcome(trace, None, None, False, str(exc))

        composed, conflict = self._replay(trace, lanes)
        if conflict is None:
            # hidden silent-history divergence: components may absorb a shared
            # silent transition into different visible arcs, composing cleanly
            # into a sequence the whole model cannot actually execute
            visible = [m.label for m in composed if m.op != OP_LHIDE]
            if not visible_run_realizable(self.net, visible):
                conflict = EXTENDED_LABEL_CONFLICT
        if conflict is None:
            return RecompositionOutcome(trace, make_alignment(composed), None, False)
        if isinstance(self.full_rg, StateSpaceCapError):
            return RecompositionOutcome(trace, None, conflict, True, str(self.full_rg))
        try:
            alignment = align_one_optimal(trace, rg=self.full_rg, deadline=deadline)
        except LogAlignError as exc:
            # the search may run out of budget; only this trace fails
            return RecompositionOutcome(trace, None, conflict, True, str(exc))
        return RecompositionOutcome(trace, alignment, conflict, True)

    def _replay(self, trace, lanes):
        composed: list[Move] = []
        for pos_c in range(len(trace) + 1):
            label = trace[pos_c] if pos_c < len(trace) else None
            conflict = self._catch_up(label, lanes, composed)
            if conflict:
                return None, conflict
            if label is None:
                break
            owners = self.owners.get(label, ())
            nexts = [lanes[i].peek() for i in owners]
            if any(n is None or n[1] != label for n in nexts):
                return None, OPERATION_CONFLICT
            ops = {n[0] for n in nexts}
            if not owners or ops == {OP_LHIDE}:
                # log-only move; with no owner the model knows nothing of the event
                composed.append(Move(OP_LHIDE, label, (), None, None))
            elif ops == {OP_MATCH}:
                trails = {n[2] for n in nexts}
                if len(trails) > 1:
                    return None, EXTENDED_LABEL_CONFLICT
                composed.append(Move(OP_MATCH, label, trails.pop(), None, None))
            else:
                return None, OPERATION_CONFLICT
            for i in owners:
                lanes[i].pos += 1
        return composed, None

    def _catch_up(self, label, lanes, composed):
        """Compose agreed model skips until every owner of ``label`` is at it."""
        while True:
            if label is None:
                waiting = any(lane.peek() is not None for lane in lanes)
            else:
                waiting = any(nxt is not None and nxt[1] != label
                              for nxt in (lanes[i].peek() for i in self.owners.get(label, ())))
            if not waiting:
                return None
            proposals: dict = {}
            for i, lane in enumerate(lanes):
                nxt = lane.peek()
                if nxt is not None and nxt[0] == OP_RHIDE:
                    proposals.setdefault((nxt[1], nxt[2]), set()).add(i)
            chosen = None
            for (x, trail), members in sorted(
                    proposals.items(), key=lambda kv: (self.rank[kv[0][0]], kv[0][1])):
                if members == set(self.owners.get(x, ())):
                    chosen = (x, trail, members)
                    break
            if chosen is None:
                by_label: dict = {}
                for (x, trail), members in proposals.items():
                    by_label.setdefault(x, set()).update(members)
                for x, members in by_label.items():
                    if members == set(self.owners.get(x, ())) and \
                            len({t for (y, t) in proposals if y == x}) > 1:
                        return EXTENDED_LABEL_CONFLICT
                return ORDER_CONFLICT
            x, trail, members = chosen
            composed.append(Move(OP_RHIDE, x, trail, None, None))
            for i in members:
                lanes[i].pos += 1


def visible_run_realizable(net, labels) -> bool:
    """Whether the net can execute exactly this visible label sequence and
    silently reach a final marking, decided by a tau-closure walk over
    marking sets (no reachability graph needed)."""
    silent, by_label = _firing_tables(net)

    def closure(markings):
        seen = set(markings)
        stack = list(markings)
        while stack:
            m = stack.pop()
            for pre, post in silent:
                rest = m & ~pre
                if (m & pre) == pre and not rest & post:
                    m2 = rest | post
                    if m2 not in seen:
                        seen.add(m2)
                        stack.append(m2)
        return seen

    current = closure({net.m0})
    for label in labels:
        nxt = set()
        for pre, post in by_label.get(label, ()):
            for m in current:
                rest = m & ~pre
                if (m & pre) == pre and not rest & post:
                    nxt.add(rest | post)
        if not nxt:
            return False
        current = closure(nxt)
    return bool(current & net.finals)


def _firing_tables(net):
    """``(silent, by_label)``: the (pre, post) masks of the net's silent
    transitions, and of its visible ones per label, in transition order.
    Built once per net and kept on it."""
    tables = getattr(net, "_firing_tables", None)
    if tables is None:
        silent = []
        by_label: dict[int, list[tuple[int, int]]] = {}
        for t, tr in enumerate(net.transitions):
            masks = (net.pre[t], net.post[t])
            if tr.label == TAU:
                silent.append(masks)
            else:
                by_label.setdefault(tr.label, []).append(masks)
        tables = net._firing_tables = (silent, by_label)
    return tables


def replays_on_model(alignment: Alignment, trace, rg: ReachabilityGraph) -> bool:
    """Propriety of a (possibly recomposed) alignment against a tau-free
    reachability graph: it spells the trace and its model moves can be read
    as one contiguous path from the initial to a final marking."""
    if alignment.log_projection() != tuple(trace):
        return False
    current = {rg.m0}
    for move in alignment.model_projection():
        current = {a.tgt for u in current for a in rg.out[u] if a.label == move.label}
        if not current:
            return False
    return bool(current & rg.finals)


def hybrid_select(rg: Optional[ReachabilityGraph],
                  component_rgs: Optional[list[ReachabilityGraph]]) -> tuple[str, dict]:
    """Pick the alignment strategy by comparing state-space sizes.

    The decomposed route wins exactly when the summed sizes (markings plus
    arcs) of all component graphs are strictly below the monolithic graph's
    size.  When the monolithic graph could not be built at all, the
    decomposed route is the only option left.
    """
    info = {
        "rg_size": None if rg is None else rg.size(),
        "component_rg_sizes": None if component_rgs is None
        else [c.size() for c in component_rgs],
        "component_rg_total": None if component_rgs is None
        else sum(c.size() for c in component_rgs),
    }
    if component_rgs is None:
        return "monolithic", info
    if rg is None:
        return "s-component", info
    choice = "s-component" if info["component_rg_total"] < info["rg_size"] else "monolithic"
    return choice, info
