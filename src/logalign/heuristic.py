"""Admissible future-cost estimate for alignment search.

For every marking of a tau-free reachability graph we precompute the set of
label multisets that can still be produced on the way to a final marking.
The computation walks the strongly connected components backwards from the
finals; labels on arcs inside a nontrivial component are recorded with an
unbounded-repetition flag instead of a count.  A component whose set grows
past ``entry_cap`` entries gets the single degenerate entry (no counts, every
label repeatable), so its merging stops as soon as the cap is passed.
Every component that crosses into one successor component on one label
bumps that successor's entries the same way, so such a step's bumped list
is built once, shared by the components that take it, and freed once the
last of them is done; a step taken by one component is not kept.

The estimate for a search state compares the multiset of remaining trace
labels F against each future multiset (counts c, repeatable labels omega):

    missing(F, entry) = sum over labels not repeatable of max(0, F[l] - c[l])
    surplus(F, entry) = sum over counted labels of max(0, c[l] - F[l])

and takes the minimum of missing + surplus over all entries.  Repeatable
labels absorb any number of trace occurrences and never demand a skip
themselves, which keeps the estimate optimistic.  With T the entry's total
count and max(0, x - y) = x - min(x, y), the sum has the closed form

    missing + surplus = |F| + T - sum over l in omega of F[l]
                        - sum over counted l of w_l * min(F[l], c[l])

with w_l = 1 for l in omega and 2 otherwise.  ``h`` evaluates this form: it
visits the entry's own counted labels, stored with their weights, and for
the omega term walks the smaller of omega and F (from F's side it adds the
labels outside omega to T instead).  An entry so costs one step per counted
label plus one per element of the smaller of omega and F's distinct
labels; with an empty omega, its counted labels alone.  A search passes |F|
in, as it knows the trace position; ``h`` sums F only when it is left out.

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
  drops every dominated entry; equal keys keep the order they are given in.
- Dominance survives one more occurrence of a label in both entries and a
  union of both omegas with one set.  So every undominated entry of a
  component is the final entry or a successor's kept entry, bumped on the
  step's label and unioned with the component's own repeatable labels.
  These candidates are usually far fewer than the component's raw entries,
  and the pass over them keeps the same entries.  They are fed to it in the
  raw tuple's sorted order, so the kept order is the same too.  A
  component whose candidates are not fewer than its raw entries (one raw
  entry, as on every component of a net of parallel tasks) prunes the raw
  entries instead.
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
from collections import Counter
from typing import Optional, Sequence
from weakref import ref

from .reachability import ReachabilityGraph

DEFAULT_ENTRY_CAP = 256

Entry = tuple[tuple[tuple[int, int], ...], frozenset[int]]  # (sorted counts, repeatable)
# (total count, repeatable, ((label, count, weight), ...)): weight 1 for a
# repeatable label, 2 for any other
ScanEntry = tuple[int, frozenset[int], tuple[tuple[int, int, int], ...]]
KeptEntry = tuple[int, tuple[tuple[int, int], ...], frozenset[int]]  # (total count, counts, repeatable)


class FutureLabelTable:
    """The future-label entries of each marking of ``rg``, in scan form.

    The searches keep a graph's table on the graph, so the table holds its
    graph through a weak reference: a strong one would make each searched
    graph and its table a reference cycle that only the cyclic collector
    frees.  ``rg`` is the graph while it is alive, and None after.
    """

    __slots__ = ("_rg", "entries", "classes", "n_classes", "_scan")

    def __init__(self, rg: ReachabilityGraph, entries: tuple[tuple[Entry, ...], ...],
                 kept: Optional[tuple[tuple[KeptEntry, ...], ...]] = None):
        self._rg = ref(rg)
        self.entries = entries  # per marking id
        # markings of one component share their entry tuple: prune each tuple
        # once (or take its undominated entries from kept, per marking id)
        # and number the distinct tuples, by identity, as the classes
        by_id: dict[int, int] = {}
        pruned: list[tuple[ScanEntry, ...]] = []
        classes = []
        for mid, own in enumerate(entries):
            cls = by_id.get(id(own))
            if cls is None:
                cls = by_id[id(own)] = len(pruned)
                pruned.append(_scan_form(_prune(own) if kept is None else kept[mid]))
            classes.append(cls)
        self.classes = classes  # per marking id
        self.n_classes = len(pruned)
        self._scan = [pruned[cls] for cls in classes]

    @property
    def rg(self) -> Optional[ReachabilityGraph]:
        return self._rg()

    def h(self, remaining: dict[int, int], mid: int, size: Optional[int] = None) -> int:
        """The estimate for remaining trace labels ``remaining`` (of total
        ``size``, summed here when not given) at marking ``mid``."""
        scan = self._scan[mid]
        if not scan:
            return 0
        if size is None:
            size = sum(remaining.values())
        get = remaining.get
        best = scan[0][0] + size + 1  # above the first entry's estimate
        for total, omega, labels in scan:
            if total - size >= best:
                break
            # |F| + T less F's repeatable labels, summed from the smaller side
            if not omega:
                v = size + total
            elif len(omega) < len(remaining):
                v = size + total
                for l in omega:
                    f = get(l)
                    if f:
                        v -= f
            else:
                v = total
                for l, f in remaining.items():
                    if l not in omega:
                        v += f
            for l, c, w in labels:
                f = get(l)
                if f:
                    v -= w * (f if f < c else c)
            if v < best:
                best = v
                if v == 0:
                    break
        return best


def _prune(entries: Sequence[Entry]) -> tuple[KeptEntry, ...]:
    """The entries no other entry dominates, by ascending total count, as
    (total, counts, repeatable)."""
    # by total count, then larger omega first, then as given
    order = sorted((sum(c for _, c in entry[0]), -len(entry[1]), i)
                   for i, entry in enumerate(entries))
    kept: list[tuple[int, dict[int, int], frozenset[int]]] = []
    out: list[KeptEntry] = []
    for total, _, i in order:
        counts, omega = entries[i]
        cdict = dict(counts)
        if not kept or not any(_dominates(x, cdict, omega) for x in kept):
            kept.append((total, cdict, omega))
            out.append((total, counts, omega))
    return tuple(out)


def _scan_form(kept: tuple[KeptEntry, ...]) -> tuple[ScanEntry, ...]:
    """Pruned entries in the form ``h`` scans."""
    return tuple((total, omega, tuple((l, c, 1 if l in omega else 2) for l, c in counts))
                 for total, counts, omega in kept)


def _dominates(x: tuple[int, dict[int, int], frozenset[int]], cdict: dict[int, int],
               omega: frozenset[int]) -> bool:
    """Whether the estimate of entry x = (total, counts, repeatable) is at
    most that of entry (cdict, omega) for every F."""
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
    rows = rg.succ.rows
    comp = _tarjan(rows)
    ncomp = max(comp) + 1 if n else 0
    sizes = [0] * ncomp
    for c in comp:
        sizes[c] += 1

    internal: list[set[int]] = [set() for _ in range(ncomp)]
    crossing: list[list] = [[] for _ in range(ncomp)]
    nontrivial = [size > 1 for size in sizes]
    for c, row in zip(comp, rows):
        for s in row:
            if comp[s.tgt] == c:
                internal[c].add(s.label)
                nontrivial[c] = True
            else:
                crossing[c].append(s)

    # one tuple for every capped component, so they all share one class
    degenerate: tuple[Entry, ...] = (((), frozenset(s.label for row in rows for s in row)),)
    degenerate_kept: tuple[KeptEntry, ...] = ((0,) + degenerate[0],)  # its one entry
    has_final = [False] * ncomp
    for f in rg.finals:
        has_final[comp[f]] = True

    # a step (successor component, label) bumps the same entries for every
    # component that takes it: its bumped list is kept while components that
    # have not yet taken it remain, and freed after the last of them
    steps = [tuple(dict.fromkeys((comp[s.tgt], s.label) for s in succs)) for succs in crossing]
    takers = Counter(step for taken in steps for step in taken)  # still to come
    shared: dict[tuple[int, int], list[Entry]] = {}

    # Tarjan emits components in reverse topological order, so successors of
    # a component are always finished before it
    futures: list[tuple[Entry, ...]] = [()] * ncomp
    kept: list[tuple[KeptEntry, ...]] = [()] * ncomp  # each component's undominated entries
    for c in range(ncomp):
        omega_base = frozenset(internal[c]) if nontrivial[c] else frozenset()
        unions: dict[frozenset[int], frozenset[int]] = {}
        acc: dict[Entry, None] = {}
        if has_final[c]:
            acc[((), omega_base)] = None
        for step in steps[c]:
            bumped = shared.get(step)
            if bumped is None:
                succ, label = step
                bumped = [(_bump(counts, label), omega) for counts, omega in futures[succ]]
                if takers[step] > 1:
                    shared[step] = bumped
            if omega_base:
                for counts, omega in bumped:
                    merged = unions.get(omega)
                    if merged is None:
                        merged = unions[omega] = omega | omega_base
                    acc[(counts, merged)] = None
            else:
                acc.update(dict.fromkeys(bumped))
            if len(acc) > entry_cap:
                break
        if len(acc) > entry_cap:
            futures[c] = degenerate  # no counts, every label repeatable: still optimistic
            kept[c] = degenerate_kept
        else:
            pool = futures[c] = tuple(sorted(acc))
            # every undominated entry is the final entry or a successor's kept
            # entry bumped on the step's label: prune those when they are
            # fewer (each successor keeps at least one, so check that first)
            if (has_final[c] + len(steps[c]) < len(pool)
                    and has_final[c] + sum(len(kept[succ]) for succ, _ in steps[c]) < len(pool)):
                cand = {((), omega_base)} if has_final[c] else set()
                for succ, label in steps[c]:
                    for _, counts, omega in kept[succ]:
                        merged = unions.get(omega)
                        if merged is None:
                            merged = unions[omega] = omega | omega_base
                        cand.add((_bump(counts, label), merged))
                pool = [e for e in pool if e in cand]  # in the raw order, which ties keep
            kept[c] = _prune(pool)
        for step in steps[c]:
            takers[step] -= 1
            if not takers[step]:
                shared.pop(step, None)  # absent unless an earlier taker built it
    return FutureLabelTable(rg, tuple([futures[c] for c in comp]), tuple([kept[c] for c in comp]))


def _tarjan(rows) -> list[int]:
    """Iterative Tarjan over successor rows; component ids in emission
    (reverse topological) order."""
    n = len(rows)
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
            row = rows[v]
            while pi < len(row):
                w = row[pi].tgt
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
