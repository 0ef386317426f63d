"""Admissible future-cost estimate for alignment search.

For every marking of a tau-free reachability graph we precompute the set of
label multisets that can still be produced on the way to a final marking.
The computation walks the strongly connected components backwards from the
finals; labels on arcs inside a nontrivial component are recorded with an
unbounded-repetition flag instead of a count.  A component whose set grows
past ``entry_cap`` entries gets the single degenerate entry (no counts, every
label repeatable), so its merging stops as soon as the cap is passed.

The estimate for a search state compares the multiset of remaining trace
labels F against each future multiset (counts c, repeatable labels omega):

    missing(F, entry) = sum over labels not repeatable of max(0, F[l] - c[l])
    surplus(F, entry) = sum over counted labels of max(0, c[l] - F[l])

and takes the minimum of missing + surplus over all entries.  Repeatable
labels absorb any number of trace occurrences and never demand a skip
themselves, which keeps the estimate optimistic.

``h`` scans a pruned, sorted form of each entry set and returns the same
minimum as a scan of every entry:

- The estimate is a sum of one term per label.  Entry x dominates entry y
  of the same set when, for every label l, either l is in omega_x and
  c_x[l] <= c_y[l], or l is in neither omega_x nor omega_y and
  c_x[l] = c_y[l].  In the first case x's term for l has no missing part
  and a surplus no larger than y's; in the second the two terms are equal.
  So x's estimate is never above y's for any F, and dropping y leaves the
  minimum unchanged.  A dominating entry has a total count at most y's, and
  a larger omega when the totals are equal, so one pass in
  (total, -|omega|) order, checking each entry against those kept so far,
  drops every dominated entry.
- Since surplus >= sum(c) - |F|, an entry of total count T costs at least
  T - |F|.  Entries are scanned by ascending T and the scan stops once
  T - |F| reaches the best estimate found.

``h(F, mid)`` reads nothing of the marking but its entry tuple, which every
marking of one component shares, and every capped component shares the one
degenerate tuple.  ``classes[mid]`` numbers the distinct tuples densely from
0 (``n_classes`` of them): the marking's future-label class.  Markings of one
class get the same estimate for every F, so a search caches ``h`` per
(trace position, class) rather than per (trace position, marking).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field

from .reachability import ReachabilityGraph

DEFAULT_ENTRY_CAP = 256

Entry = tuple[tuple[tuple[int, int], ...], frozenset[int]]  # (sorted counts, repeatable)
ScanEntry = tuple[int, dict[int, int], frozenset[int]]  # (total count, counts, repeatable)


@dataclass
class FutureLabelTable:
    rg: ReachabilityGraph
    entries: tuple[tuple[Entry, ...], ...]  # per marking id
    classes: list[int] = field(init=False, repr=False, compare=False)  # per marking id
    n_classes: int = field(init=False, repr=False, compare=False)
    _scan: list[tuple[ScanEntry, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # markings of one component share their entry tuple: prune each tuple
        # once and number the distinct tuples, by identity, as the classes
        by_id: dict[int, int] = {}
        pruned: list[tuple[ScanEntry, ...]] = []
        classes = []
        for entries in self.entries:
            cls = by_id.get(id(entries))
            if cls is None:
                cls = by_id[id(entries)] = len(pruned)
                pruned.append(_prune(entries))
            classes.append(cls)
        self.classes = classes
        self.n_classes = len(pruned)
        self._scan = [pruned[cls] for cls in classes]

    def h(self, remaining: dict[int, int], mid: int) -> int:
        scan = self._scan[mid]
        if not scan:
            return 0
        size = sum(remaining.values())
        best = scan[0][0] + size + 1  # above the first entry's estimate
        for total, cdict, omega in scan:
            if total - size >= best:
                break
            v = 0
            for l, f in remaining.items():
                if l not in omega:
                    d = f - cdict.get(l, 0)
                    if d > 0:
                        v += d
            for l, c in cdict.items():
                d = c - remaining.get(l, 0)
                if d > 0:
                    v += d
            if v < best:
                best = v
                if v == 0:
                    break
        return best


def _prune(entries: tuple[Entry, ...]) -> tuple[ScanEntry, ...]:
    """The entries no other entry dominates, by ascending total count."""
    order = sorted(((sum(c for _, c in counts), counts, omega) for counts, omega in entries),
                   key=lambda e: (e[0], -len(e[2])))
    kept: list[ScanEntry] = []
    for total, counts, omega in order:
        cdict = dict(counts)
        if not any(_dominates(x, cdict, omega) for x in kept):
            kept.append((total, cdict, omega))
    return tuple(kept)


def _dominates(x: ScanEntry, cdict: dict[int, int], omega: frozenset[int]) -> bool:
    """Whether x's estimate is at most that of entry (cdict, omega) for every F."""
    _, xdict, xomega = x
    if not omega <= xomega:
        return False
    for l, c in xdict.items():
        if c > cdict.get(l, 0) or (c != cdict[l] and l not in xomega):
            return False
    return all(l in xomega or l in xdict for l in cdict)


def _bump(counts: tuple[tuple[int, int], ...], label: int) -> tuple[tuple[int, int], ...]:
    """Sorted counts with one more occurrence of label."""
    i = bisect_left(counts, (label,))
    if i < len(counts) and counts[i][0] == label:
        return counts[:i] + ((label, counts[i][1] + 1),) + counts[i + 1:]
    return counts[:i] + ((label, 1),) + counts[i:]


def precompute_future_labels(rg: ReachabilityGraph, entry_cap: int = DEFAULT_ENTRY_CAP) -> FutureLabelTable:
    if not rg.reduced:
        raise ValueError("future labels are computed on a tau-free graph")
    n = len(rg.markings)
    comp = _tarjan(n, rg)
    ncomp = max(comp) + 1 if n else 0
    members: list[list[int]] = [[] for _ in range(ncomp)]
    for mid in range(n):
        members[comp[mid]].append(mid)

    internal: list[set[int]] = [set() for _ in range(ncomp)]
    crossing: list[list] = [[] for _ in range(ncomp)]
    nontrivial = [len(m) > 1 for m in members]
    for a in rg.arcs:
        c = comp[a.src]
        if comp[a.tgt] == c:
            internal[c].add(a.label)
            nontrivial[c] = True
        else:
            crossing[c].append(a)

    # one tuple for every capped component, so they all share one class
    degenerate: tuple[Entry, ...] = (((), frozenset(a.label for a in rg.arcs)),)
    has_final = [False] * ncomp
    for f in rg.finals:
        has_final[comp[f]] = True

    # Tarjan emits components in reverse topological order, so successors of
    # a component are always finished before it
    futures: list[tuple[Entry, ...]] = [()] * ncomp
    for c in range(ncomp):
        omega_base = frozenset(internal[c]) if nontrivial[c] else frozenset()
        unions: dict[frozenset[int], frozenset[int]] = {}
        acc: dict[Entry, None] = {}
        if has_final[c]:
            acc[((), omega_base)] = None
        seen: set[tuple[int, int]] = set()
        for a in crossing[c]:
            step = (comp[a.tgt], a.label)
            if step in seen:
                continue  # same candidates as an earlier arc
            seen.add(step)
            for counts, omega in futures[step[0]]:
                if omega_base:
                    merged = unions.get(omega)
                    if merged is None:
                        merged = unions[omega] = omega | omega_base
                    omega = merged
                acc[(_bump(counts, a.label), omega)] = None
            if len(acc) > entry_cap:
                break
        if len(acc) > entry_cap:
            futures[c] = degenerate  # no counts, every label repeatable: still optimistic
        else:
            futures[c] = tuple(sorted(acc))
    return FutureLabelTable(rg, tuple(futures[comp[mid]] for mid in range(n)))


def _tarjan(n: int, rg: ReachabilityGraph) -> list[int]:
    """Iterative Tarjan; component ids in emission (reverse topological) order."""
    comp = [-1] * n
    low = [0] * n
    num = [-1] * n
    counter = 0
    ncomp = 0
    stack: list[int] = []
    on_stack = [False] * n
    for root in range(n):
        if num[root] != -1:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                num[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            while pi < len(rg.out[v]):
                w = rg.out[v][pi].tgt
                pi += 1
                if num[w] == -1:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], num[w])
            if advanced:
                continue
            work.pop()
            if low[v] == num[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp
