"""Brute-force optimal-alignment solver, independent of the A* engine.

Uniform-cost search over (trace position, marking) pairs with no heuristic,
used to validate optimality claims and to generate expected values for
tests.  Deliberately shares no code with the alignment module.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import NamedTuple, Optional

from .errors import LogAlignError, OracleGuardError
from .reachability import ReachabilityGraph

GUARD = 10 ** 6

MATCH = "match"
LHIDE = "lhide"
RHIDE = "rhide"


class OracleWitness(NamedTuple):
    moves: tuple[tuple[str, int], ...]  # (operation, label id)
    cost: int


def brute_force_optimal_cost(trace, rg: ReachabilityGraph,
                             guard: int = GUARD) -> tuple[int, OracleWitness]:
    """Exact optimum by Dijkstra over the synchronous product state space.

    Moves cost: match 0, lhide 1, rhide 1.  Refuses instances where
    (|trace|+1) * |markings| exceeds the guard.
    """
    trace = tuple(trace)
    if (len(trace) + 1) * len(rg.markings) > guard:
        raise OracleGuardError("instance above oracle size guard")
    start = (0, rg.m0)
    dist = {start: 0}
    parent: dict = {start: None}
    heap = [(0, 0, start)]
    counter = 1
    n = len(trace)
    while heap:
        d, _, state = heappop(heap)
        if d > dist.get(state, GUARD):
            continue
        pos, mid = state
        if pos == n and mid in rg.finals:
            moves = []
            cur = state
            while parent[cur] is not None:
                cur, move = parent[cur]
                moves.append(move)
            moves.reverse()
            return d, OracleWitness(tuple(moves), d)
        row = rg.succ[mid]
        succ = []
        if pos < n:
            succ.append(((pos + 1, mid), 1, (LHIDE, trace[pos])))
            for s in row:
                if s.label == trace[pos]:
                    succ.append(((pos + 1, s.tgt), 0, (MATCH, s.label)))
        for s in row:
            succ.append(((pos, s.tgt), 1, (RHIDE, s.label)))
        for nstate, w, move in succ:
            nd = d + w
            if nd < dist.get(nstate, GUARD):
                dist[nstate] = nd
                parent[nstate] = (state, move)
                heappush(heap, (nd, counter, nstate))
                counter += 1
    raise LogAlignError("no proper alignment exists for the trace")


def enumerate_optimal_move_sequences(trace, rg: ReachabilityGraph,
                                     limit: Optional[int] = None) -> tuple[int, list]:
    """All optimal proper move sequences, by exhaustive bounded DFS.

    Intended for small instances only (trace length up to about 8); the
    search explores every move sequence whose cost stays within the optimum
    obtained from the Dijkstra pass.
    """
    trace = tuple(trace)
    cstar, _ = brute_force_optimal_cost(trace, rg)
    n = len(trace)
    out: list[tuple] = []

    def rec(pos, mid, cost, acc):
        if limit is not None and len(out) >= limit:
            return
        if pos == n and mid in rg.finals:
            out.append(tuple(acc))
            # a final can still be left by rhide moves, but that only adds cost
        if cost == cstar:
            budget_left = 0
        else:
            budget_left = cstar - cost
        row = rg.succ[mid]
        if pos < n:
            for s in row:
                if s.label == trace[pos]:
                    acc.append((MATCH, s.label, s.trail, s.tgt))
                    rec(pos + 1, s.tgt, cost, acc)
                    acc.pop()
            if budget_left > 0:
                acc.append((LHIDE, trace[pos], (), mid))
                rec(pos + 1, mid, cost + 1, acc)
                acc.pop()
        if budget_left > 0:
            for s in row:
                acc.append((RHIDE, s.label, s.trail, s.tgt))
                rec(pos, s.tgt, cost + 1, acc)
                acc.pop()

    rec(0, rg.m0, 0, [])
    return cstar, out
