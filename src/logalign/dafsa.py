"""Deterministic acyclic automata over the distinct traces of a log.

Construction exploits compression on both sides: the distinct traces are
first laid out as a prefix trie, then traces are paired greedily by their
longest shareable common suffix and each pair's suffix chains are folded
together (including the state the suffix is read from, when that is safe).
The result is deterministic, acyclic, accepts exactly the distinct traces,
and exposes the shared-prefix and shared-suffix states that the memoization
of the all-optimal sweeps anchors on.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Iterator, Optional

from .logs import EventLog, LabelTable


@dataclass
class Dafsa:
    table: LabelTable
    out: tuple[dict[int, int], ...]  # per state: label id -> target state
    finals: frozenset[int]
    initial: int = 0
    # derived from ``out``: arcs in label order per state, and state degrees
    arcs: tuple[tuple[int, int, int], ...] = field(init=False)
    in_degree: tuple[int, ...] = field(init=False)
    out_degree: tuple[int, ...] = field(init=False)
    _rank: dict = field(init=False, repr=False)

    def __post_init__(self):
        self._rank = self.table.rank()
        self.arcs = tuple((src, label, tgt) for src, row in enumerate(self.out)
                          for label, tgt in sorted(row.items(), key=lambda it: self._rank[it[0]]))
        indeg = [0] * len(self.out)
        outdeg = [0] * len(self.out)
        for src, _, tgt in self.arcs:
            outdeg[src] += 1
            indeg[tgt] += 1
        self.in_degree = tuple(indeg)
        self.out_degree = tuple(outdeg)

    def __len__(self) -> int:
        return len(self.out)

    def walk(self, labels: tuple[int, ...]) -> Optional[list[int]]:
        """State path for a label sequence, or None if it leaves the automaton."""
        path = [self.initial]
        for l in labels:
            nxt = self.out[path[-1]].get(l)
            if nxt is None:
                return None
            path.append(nxt)
        return path

    def language(self) -> Iterator[tuple[int, ...]]:
        """All initial-to-final label sequences, lexicographic by label text."""
        stack = [(self.initial, ())]
        while stack:
            state, prefix = stack.pop()
            if state in self.finals:
                yield prefix
            for label, tgt in sorted(self.out[state].items(),
                                     key=lambda it: self._rank[it[0]], reverse=True):
                stack.append((tgt, prefix + (label,)))


class _Trie:
    def __init__(self):
        self.out: list[dict[int, int]] = [{}]
        self.parent: list[tuple[int, int]] = [(-1, -1)]  # (parent state, label)
        self.final: list[bool] = [False]
        self.alive: list[bool] = [True]

    def insert(self, word) -> list[int]:
        path = [0]
        cur = 0
        for label in word:
            nxt = self.out[cur].get(label)
            if nxt is None:
                nxt = len(self.out)
                self.out.append({})
                self.parent.append((cur, label))
                self.final.append(False)
                self.alive.append(True)
                self.out[cur][label] = nxt
            path.append(nxt)
            cur = nxt
        self.final[cur] = True
        return path

    def redirect_into(self, state: int, target: int):
        parent, label = self.parent[state]
        self.out[parent][label] = target

    def kill(self, state: int):
        self.alive[state] = False
        self.out[state] = {}


def _common_suffix_len(a, b) -> int:
    n = 0
    while n < len(a) and n < len(b) and a[-1 - n] == b[-1 - n]:
        n += 1
    return n


def _foldable_len(trie: _Trie, path_a, path_b, lcs: int) -> int:
    """Longest end-anchored run of suffix states that can be identified
    without changing the language: live distinct states with matching
    finality and a single (or, at the very end, no) continuation."""
    safe = 0
    for depth in range(lcs):  # depth 0 = the two end states
        a, b = path_a[len(path_a) - 1 - depth], path_b[len(path_b) - 1 - depth]
        if a == b or not (trie.alive[a] and trie.alive[b]):
            break
        if trie.final[a] != trie.final[b]:
            break
        da, db = len(trie.out[a]), len(trie.out[b])
        if depth == 0:
            if da or db:
                break
        elif not (da == 1 and db == 1):
            break
        safe = depth + 1
    return safe


def build_dafsa(log: EventLog) -> Dafsa:
    """Automaton accepting exactly the distinct traces, with shared prefixes
    and pairwise-folded shared suffixes."""
    words = sorted({t.labels for t in log.traces},
                   key=lambda w: tuple(log.table.text(l) for l in w))
    trie = _Trie()
    paths = [trie.insert(word) for word in words]

    # candidate pairs share at least their last label; fold lengths only
    # shrink as the trie evolves, so a lazily re-checked max-heap picks the
    # same pairs as a full rescan would
    by_last: dict[int, list[int]] = {}
    for i, word in enumerate(words):
        if word:
            by_last.setdefault(word[-1], []).append(i)
    heap = []
    for bucket in by_last.values():
        for a in range(len(bucket)):
            for b in range(a + 1, len(bucket)):
                i, j = bucket[a], bucket[b]
                heap.append((-_common_suffix_len(words[i], words[j]), i, j))
    heapq.heapify(heap)

    used = [False] * len(words)
    while heap:
        bound, i, j = heapq.heappop(heap)
        if used[i] or used[j]:
            continue
        fold = _foldable_len(trie, paths[i], paths[j], -bound)
        if fold == 0:
            continue
        if fold < -bound:
            heapq.heappush(heap, (-fold, i, j))
            continue
        used[i] = used[j] = True
        path_a, path_b = paths[i], paths[j]
        # identify the last `fold` states of b's chain with a's
        deepest = len(path_b) - fold
        trie.redirect_into(path_b[deepest], path_a[len(path_a) - fold])
        for depth in range(fold):
            trie.kill(path_b[len(path_b) - 1 - depth])
        # fold the states the shared suffix is read from, when they are
        # plain chain states on both sides
        a0, b0 = path_a[len(path_a) - 1 - fold], path_b[deepest - 1]
        if (a0 != b0 and a0 != 0 and b0 != 0
                and trie.alive[a0] and trie.alive[b0]
                and len(trie.out[a0]) == 1 and len(trie.out[b0]) == 1
                and trie.final[a0] == trie.final[b0]):
            trie.redirect_into(b0, a0)
            trie.kill(b0)

    # renumber reachable states breadth-first along label-sorted arcs
    rank = log.table.rank()
    remap = {0: 0}
    order = [0]
    k = 0
    while k < len(order):
        state = order[k]
        k += 1
        for label in sorted(trie.out[state], key=lambda l: rank[l]):
            tgt = trie.out[state][label]
            if tgt not in remap:
                remap[tgt] = len(order)
                order.append(tgt)
    new_out = tuple({l: remap[t] for l, t in trie.out[s].items()} for s in order)
    new_finals = frozenset(remap[s] for s in remap if trie.final[s])
    return Dafsa(log.table, new_out, new_finals)


def common_affixes(dafsa: Dafsa) -> tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, ...]]]:
    """(common prefixes, common suffixes) of the automaton.

    Prefixes of states with more than one outgoing arc and suffixes of
    states with more than one incoming arc, flattened into one set each.
    The trivial empty affix is not reported.
    """
    prefixes: set[tuple[int, ...]] = set()
    suffixes: set[tuple[int, ...]] = set()
    for state in range(len(dafsa)):
        if dafsa.out_degree[state] > 1:
            prefixes.update(p for p in _prefixes_of(dafsa, state) if p)
        if dafsa.in_degree[state] > 1:
            suffixes.update(s for s in _suffixes_of(dafsa, state) if s)
    return frozenset(prefixes), frozenset(suffixes)


def _prefixes_of(dafsa: Dafsa, state: int) -> set[tuple[int, ...]]:
    preds: dict[int, list[tuple[int, int]]] = {}
    for src, label, tgt in dafsa.arcs:
        preds.setdefault(tgt, []).append((src, label))
    result: dict[int, set] = {}

    def rec(s: int) -> set:
        if s == dafsa.initial:
            return {()}
        if s not in result:
            acc = set()
            for src, label in preds.get(s, []):
                acc.update(p + (label,) for p in rec(src))
            result[s] = acc
        return result[s]

    return rec(state)


def _suffixes_of(dafsa: Dafsa, state: int) -> set[tuple[int, ...]]:
    result: dict[int, set] = {}

    def rec(s: int) -> set:
        if s not in result:
            acc = set()
            if s in dafsa.finals:
                acc.add(())
            for label, tgt in dafsa.out[s].items():
                acc.update((label,) + x for x in rec(tgt))
            result[s] = acc
        return result[s]

    return rec(state)


def language(dafsa: Dafsa) -> frozenset[tuple[int, ...]]:
    return frozenset(dafsa.language())


def dafsa_to_dot(dafsa: Dafsa) -> str:
    lines = ["digraph dafsa {", "  rankdir=LR;"]
    for state in range(len(dafsa)):
        shape = "doublecircle" if state in dafsa.finals else "circle"
        lines.append('  n%d [shape=%s, label="n%d"];' % (state, shape, state))
    for src, label, tgt in dafsa.arcs:
        lines.append('  n%d -> n%d [label="%s"];' % (src, tgt, dafsa.table.text(label)))
    lines.append("}")
    return "\n".join(lines)
