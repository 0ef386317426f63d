"""Divide-and-conquer alignment along S-components and its recomposition.

One pass over a trace hands each event to the components owning its label,
and each projection is aligned against its component's (extended-label,
tau-free) reachability graph; no log automaton is involved.  The projected
alignments are then replayed in parallel over the original trace: a log
event composes when every component owning its label proposes the same
operation for it, and components catch up beforehand through jointly agreed
model skips.  The replay keeps each lane's next move and, per model skip,
the lanes proposing it, and changes them only when a lane advances, so a
trace costs time linear in its length plus the number of lanes.
Disagreements (on order, on operation, or on the tau history hidden inside
an extended label) abort the replay and are reported as the trace's
conflict; what a conflicting trace gets instead is the pipeline's choice.

Recomposed alignments are proper but not necessarily optimal; they never
cost less than a monolithic optimum.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .align import OP_LHIDE, OP_RHIDE, Alignment, Move, align_one_optimal, make_alignment
from .errors import SearchBudgetError
from .invariants import decompose
from .logs import TAU
from .reachability import ReachabilityGraph, build_rg, remove_tau_extended

ORDER_CONFLICT = "order-conflict"
OPERATION_CONFLICT = "operation-conflict"
EXTENDED_LABEL_CONFLICT = "extended-label-conflict"


class RecompositionOutcome(NamedTuple):
    """A recomposed alignment, or the conflict or lane search error that
    stopped it (``alignment`` is None then)."""

    alignment: Optional[Alignment]
    conflict: Optional[str]
    error: Optional[str] = None

    @property
    def fallback_used(self) -> bool:
        """Whether the trace needs a whole-model search instead."""
        return self.conflict is not None


class SComponentAligner:
    """Aligns traces against one net through its S-components: projects
    each trace, aligns its lanes, replays them and checks the composed run
    on the net.  It never searches the whole model's graph."""

    def __init__(self, net):
        self.net = net
        self.components = [(comp, remove_tau_extended(build_rg(comp.net)))
                           for comp in decompose(net).components]
        # label -> indices of the lanes whose alphabet holds it, ascending
        self.owners: dict[int, tuple[int, ...]] = {}
        for idx, (comp, _) in enumerate(self.components):
            for label in comp.alphabet:
                self.owners[label] = self.owners.get(label, ()) + (idx,)
        self._proj_cache: dict = {}

    def component_rgs(self) -> list[ReachabilityGraph]:
        return [rg for _, rg in self.components]

    # -- per-component projected alignments ------------------------------

    def _lane_moves(self, idx: int, projected: tuple[int, ...], deadline) -> tuple[Move, ...]:
        """Align one lane's projection and cache its moves; the caller looks
        the cache up first."""
        comp, rg = self.components[idx]
        alignment = align_one_optimal(projected, rg=rg, deadline=deadline)
        # trails in net transition ids and no marking ids, so agreeing lanes
        # hold equal moves and the replay composes the lanes' own objects
        moves = tuple(
            Move(m.op, m.label, tuple(comp.transition_ids[x] for x in m.trail), None, None)
            for m in alignment.moves)
        self._proj_cache[idx, projected] = moves
        return moves

    # -- the replay itself ------------------------------------------------

    def align_trace(self, trace, deadline: Optional[float] = None) -> RecompositionOutcome:
        """Align one trace through the components; ``deadline`` bounds the
        lanes' searches."""
        trace = tuple(trace)
        projections: list[list[int]] = [[] for _ in self.components]
        for label in trace:
            for idx in self.owners.get(label, ()):
                projections[idx].append(label)
        cache = self._proj_cache
        lanes = []
        try:
            # in lane order, so the first lane to fail names the error
            for idx, projected in enumerate(projections):
                projected = tuple(projected)
                moves = cache.get((idx, projected))
                if moves is None:
                    moves = self._lane_moves(idx, projected, deadline)
                lanes.append(moves)
        except SearchBudgetError as exc:
            return RecompositionOutcome(None, None, str(exc))

        composed, conflict = self._replay(trace, lanes)
        if conflict is None:
            # hidden silent-history divergence: components may absorb a shared
            # silent transition into different visible arcs, composing cleanly
            # into a sequence the whole model cannot actually execute
            visible = [m.label for m in composed if m.op != OP_LHIDE]
            if not visible_run_realizable(self.net, visible):
                conflict = EXTENDED_LABEL_CONFLICT
        if conflict is None:
            return RecompositionOutcome(make_alignment(composed), None)
        return RecompositionOutcome(None, conflict)

    def _replay(self, trace, lanes):
        """``(composed moves, None)``, or ``(None, the first conflict)``."""
        owners, rank = self.owners, self.net.table.rank()
        composed: list[Move] = []
        cursors = [iter(moves) for moves in lanes]
        heads: list[Optional[Move]] = [None] * len(lanes)  # each lane's next move
        # model move -> the lanes whose head it is; as a lane proposes labels of
        # its own alphabet only, the move is agreed once every owner holds it
        skips: dict[Move, set[int]] = {}
        agreed: list[Move] = []

        def advance(i):
            head = heads[i] = next(cursors[i], None)
            if head is not None and head.op == OP_RHIDE:
                members = skips.setdefault(head, set())
                members.add(i)
                if len(members) == len(owners[head.label]):
                    agreed.append(head)

        def compose_skip():
            """Compose the least agreed model skip, or name the conflict."""
            if not agreed:
                # all owners of a label skip it, yet along different trails
                held: dict[int, int] = {}
                for skip, members in skips.items():
                    held[skip.label] = held.get(skip.label, 0) + len(members)
                split = any(n == len(owners[x]) for x, n in held.items())
                return EXTENDED_LABEL_CONFLICT if split else ORDER_CONFLICT
            skip = min(agreed, key=lambda m: (rank[m.label], m.trail))
            agreed.remove(skip)
            composed.append(skip)
            for i in skips.pop(skip):
                advance(i)

        for i in range(len(lanes)):
            advance(i)
        for label in trace:
            own = owners.get(label)
            if own is None:
                # log-only move; with no owner the model knows nothing of the event
                composed.append(Move(OP_LHIDE, label, (), None, None))
                continue
            # while an owner lags, no skip of this label is agreed, so owners
            # already at the event stay there
            for i in own:
                while heads[i] is not None and heads[i].label != label:
                    conflict = compose_skip()
                    if conflict:
                        return None, conflict
            first = heads[own[0]]
            if first is None or first.op == OP_RHIDE:
                return None, OPERATION_CONFLICT
            if len(own) > 1:
                nexts = [heads[i] for i in own]
                if any(n is None or n.op != first.op for n in nexts):
                    return None, OPERATION_CONFLICT
                if any(n != first for n in nexts):  # matches along different trails
                    return None, EXTENDED_LABEL_CONFLICT
            composed.append(first)
            for i in own:
                advance(i)
        for i in range(len(lanes)):  # at the end of the trace, every lane finishes
            while heads[i] is not None:
                conflict = compose_skip()
                if conflict:
                    return None, conflict
        return composed, None


def visible_run_realizable(net, labels) -> bool:
    """Whether the net can execute exactly this visible label sequence and
    silently reach a final marking, decided by a tau-closure walk over
    marking sets (no reachability graph needed)."""
    silent, by_label = _firing_tables(net)

    def closure(markings):
        # the silent successors; with none, the set is closed already
        stack = []
        for m in markings:
            for pre, post in silent:
                if (m & pre) == pre and not m & ~pre & post:
                    stack.append((m & ~pre) | post)
        if not stack:
            return markings
        seen = set(markings)
        while stack:
            m = stack.pop()
            if m not in seen:
                seen.add(m)
                stack.extend((m & ~pre) | post for pre, post in silent
                             if (m & pre) == pre and not m & ~pre & post)
        return seen

    current = closure({net.m0})
    for label in labels:
        nxt = set()
        for pre, post in by_label.get(label, ()):
            for m in current:
                if (m & pre) == pre and not m & ~pre & post:
                    nxt.add((m & ~pre) | post)
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
    rows = rg.succ
    current = {rg.m0}
    for move in alignment.model_projection():
        current = {s.tgt for u in current for s in rows[u] if s.label == move.label}
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
    sizes = None if component_rgs is None else [c.size() for c in component_rgs]
    info = {
        "rg_size": None if rg is None else rg.size(),
        "component_rg_sizes": sizes,
        "component_rg_total": None if sizes is None else sum(sizes),
    }
    if component_rgs is None:
        return "monolithic", info
    if rg is None:
        return "s-component", info
    choice = "s-component" if info["component_rg_total"] < info["rg_size"] else "monolithic"
    return choice, info
