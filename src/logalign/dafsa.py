"""Minimal deterministic acyclic automata over the distinct traces of a log.

``build_dafsa`` lays the distinct traces out as a prefix trie and then
minimizes it in one bottom-up pass, the replace-or-register step of Daciuk
et al. (Computational Linguistics 2000) applied to the whole trie: every
state is registered by its finality and its arcs to already minimized
children, and a state whose signature is already registered is replaced by
the registered one.  Two states merge exactly when
they accept the same suffixes, so the result is the unique minimal
automaton of the log, numbered breadth-first along label-ranked arcs.  Its
branching and merging states mark the log's common prefixes and suffixes
(``common_affixes``).  No alignment search reads it: a conformance run
builds it only to write ``dafsa.dot``.
"""

from __future__ import annotations

from typing import Iterator

from .logs import EventLog, LabelTable
from .petri import dot_string


class Dafsa:
    __slots__ = ("table", "out", "finals", "initial", "arcs", "in_degree", "out_degree")

    def __init__(self, table: LabelTable, out: tuple[dict[int, int], ...], finals: frozenset[int],
                 initial: int = 0):
        self.table = table
        self.out = out  # per state: label id -> target state
        self.finals = finals
        self.initial = initial
        # derived from ``out``: arcs in label order per state, and state degrees
        rank = table.rank()
        self.arcs = tuple((src, label, tgt) for src, row in enumerate(out)
                          for label, tgt in sorted(row.items(), key=lambda it: rank[it[0]]))
        indeg = [0] * len(out)
        outdeg = [0] * len(out)
        for src, _, tgt in self.arcs:
            outdeg[src] += 1
            indeg[tgt] += 1
        self.in_degree = tuple(indeg)
        self.out_degree = tuple(outdeg)

    def __len__(self) -> int:
        return len(self.out)

    def language(self) -> Iterator[tuple[int, ...]]:
        """All initial-to-final label sequences, lexicographic by label text."""
        rank = self.table.rank()
        stack = [(self.initial, ())]
        while stack:
            state, prefix = stack.pop()
            if state in self.finals:
                yield prefix
            for label, tgt in sorted(self.out[state].items(),
                                     key=lambda it: rank[it[0]], reverse=True):
                stack.append((tgt, prefix + (label,)))


def build_dafsa(log: EventLog) -> Dafsa:
    """Minimal automaton accepting exactly the distinct traces."""
    # prefix trie of the distinct traces; every child has a larger id than its parent
    out: list[dict[int, int]] = [{}]
    final = [False]
    for word in {t.labels for t in log.traces}:
        cur = 0
        for label in word:
            nxt = out[cur].get(label)
            if nxt is None:
                nxt = out[cur][label] = len(out)
                out.append({})
                final.append(False)
            cur = nxt
        final[cur] = True

    # bottom-up, children before parents: a state whose finality and
    # canonical arcs are already registered has the same right language as
    # the registered state and is replaced by it
    canon = list(range(len(out)))
    register: dict = {}
    for state in range(len(out) - 1, -1, -1):
        row = out[state] = {label: canon[tgt] for label, tgt in out[state].items()}
        canon[state] = register.setdefault((final[state], frozenset(row.items())), state)

    # renumber breadth-first along label-ranked arcs, so ids do not depend on
    # the order the traces were inserted in
    rank = log.table.rank()
    order = [0]  # no other state accepts the whole language
    remap = {0: 0}
    rows = []
    for state in order:
        row = {}
        for label in sorted(out[state], key=rank.__getitem__):
            tgt = out[state][label]
            if tgt not in remap:
                remap[tgt] = len(order)
                order.append(tgt)
            row[label] = remap[tgt]
        rows.append(row)
    return Dafsa(log.table, tuple(rows),
                 frozenset(i for i, state in enumerate(order) if final[state]))


def common_affixes(dafsa: Dafsa) -> tuple[frozenset[tuple[int, ...]], frozenset[tuple[int, ...]]]:
    """(common prefixes, common suffixes) of the automaton.

    Prefixes of states with more than one outgoing arc and suffixes of
    states with more than one incoming arc, flattened into one set each.
    The trivial empty affix is not reported.
    """
    # topological order: every state after all of its predecessors
    indeg = list(dafsa.in_degree)
    order = [dafsa.initial]
    for state in order:
        for tgt in dafsa.out[state].values():
            indeg[tgt] -= 1
            if not indeg[tgt]:
                order.append(tgt)
    # label paths initial -> state, each set dropped once its state is done
    prefixes: set[tuple[int, ...]] = set()
    heads: list = [set() for _ in range(len(dafsa))]
    heads[dafsa.initial].add(())
    for state in order:
        mine, heads[state] = heads[state], None
        if dafsa.out_degree[state] > 1:
            prefixes |= mine
        for label, tgt in dafsa.out[state].items():
            heads[tgt].update(p + (label,) for p in mine)
    # label paths state -> a final, each set dropped once its last
    # predecessor has read it
    suffixes: set[tuple[int, ...]] = set()
    tails: list = [None] * len(dafsa)
    unread = list(dafsa.in_degree)
    for state in reversed(order):
        mine = {()} if state in dafsa.finals else set()
        for label, tgt in dafsa.out[state].items():
            mine.update((label,) + s for s in tails[tgt])
            unread[tgt] -= 1
            if not unread[tgt]:
                tails[tgt] = None
        if dafsa.in_degree[state] > 1:
            suffixes |= mine
        tails[state] = mine
    prefixes.discard(())
    suffixes.discard(())
    return frozenset(prefixes), frozenset(suffixes)


def language(dafsa: Dafsa) -> frozenset[tuple[int, ...]]:
    return frozenset(dafsa.language())


def dafsa_to_dot(dafsa: Dafsa) -> str:
    lines = ["digraph dafsa {", "  rankdir=LR;"]
    for state in range(len(dafsa)):
        shape = "doublecircle" if state in dafsa.finals else "circle"
        lines.append('  n%d [shape=%s, label="n%d"];' % (state, shape, state))
    for src, label, tgt in dafsa.arcs:
        lines.append("  n%d -> n%d [label=%s];" % (src, tgt, dot_string(dafsa.table.text(label))))
    lines.append("}")
    return "\n".join(lines)
