"""Admissible future-cost estimate for alignment search.

For every marking of a tau-free reachability graph we precompute the set of
label multisets that can still be produced on the way to a final marking.
The computation walks the strongly connected components backwards from the
finals; labels on arcs inside a nontrivial component are recorded with an
unbounded-repetition flag instead of a count.  A component whose set grows
past ``entry_cap`` entries gets the single degenerate entry (no counts, every
label repeatable), so its merging stops as soon as the cap is passed.

The precompute holds each entry as two ints.  The graph's labels get a dense
index (``_Digits``), by ascending label id, so labels a log interned besides
the graph's own cannot widen them:

- the counts are one integer of fixed-width digits, digit i holding the
  count of label i;
- the repeatable labels (omega) are a bitmask, bit i for label i.

One more occurrence of a label adds that label's unit digit, and a union of
omegas is an ``|``.  A count is the number of component crossings on a path
to a final component, below the number of components ``ncomp``, so digits
of ``ncomp.bit_length() + 1`` bits never carry into each other and keep
their top bit, the guard bit, clear.  The digit sum, an entry's total
count, is the counts integer modulo ``2 ** width - 1``.

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

A class whose kept set is one entry with no omega and no count above 1 is a
set class: every class of a net of parallel tasks is one, and so is the
empty entry of a final component.  With C its counted labels, each term
of the sum above has c[l] = 1 and w_l = 2, and min(F[l], 1) is 1 exactly
when l is still in F, so the form reduces to

    |F| + |C| - 2 * |C & support(F)|

An entry whose digits are all 0 or 1 is itself the mask of C's unit
digits, and a search passes support(F) in as a mask of the same digits
(``suffixes`` gives F and its mask for every trace position, from one
backward pass over the trace; ``h`` derives the mask from F when it is
left out).  So a set class's estimate is two popcounts, with no walk over
labels.  The table lists each marking's set-class mask (``set_masks``, None
for a marking of any other class), and both searches read it and compute
the form themselves, calling ``h`` only for the other classes.

For any other class ``h`` scans a pruned form of its entry set, decoded
once per class from the packed entries, and returns the same minimum as a
scan of every entry:

- The estimate is a sum of one term per label.  Entry x dominates entry y
  of the same set when, for every label l, either l is in omega_x and
  c_x[l] <= c_y[l], or l is in neither omega_x nor omega_y and
  c_x[l] = c_y[l].  In the first case x's term for l has no missing part
  and a surplus no larger than y's; in the second the two terms are equal.
  So x's estimate is never above y's for any F, and dropping y leaves the
  minimum unchanged.  On packed entries the test is three integer tests:
  omega_y has no bit outside omega_x; c_x and c_y agree on every digit of a
  label outside omega_x; and c_y with every guard bit set, less c_x, keeps
  every guard bit set, which holds exactly when no digit of c_x exceeds
  c_y's.
- A dominating entry has a total count at most y's, and a larger omega when
  the totals are equal, and two entries that dominate each other are
  equal.  So one pass in (total, -|omega|) order, checking each entry
  against those kept so far, drops every dominated entry and keeps the same
  entries whatever the order among equal keys.  The kept entries of equal
  key stay in the order they are given in.
- Dominance survives one more occurrence of a label in both entries and a
  union of both omegas with one set.  So every undominated entry of a
  component is the final entry or a successor's kept entry, bumped on the
  step's label and unioned with the component's own repeatable labels.
  These candidates are usually far fewer than the component's raw entries,
  and the pass over them keeps the same entries.  A component whose
  candidates are not fewer than its raw entries (one raw entry, as on every
  component of a net of parallel tasks) prunes the raw entries instead.
- Since surplus >= sum(c) - |F|, an entry of total count T costs at least
  T - |F|.  Entries are scanned by ascending T and the scan stops once
  T - |F| reaches the best estimate found.  Neither the stop nor the
  minimum depends on the order among entries of one total, so neither does
  the estimate.

``classes[mid]`` numbers the distinct entry sets densely from 0
(``n_classes`` of them): the marking's future-label class.  Every marking
of one component has one class, and every capped component shares the one
degenerate entry set.  The table keeps one form per class, and ``h(F,
mid)`` reads nothing of the marking but its class's form: a set class's
unit-digit mask, or any other class's scan tuple.  A set class is never
decoded.  Markings of one class get the same estimate for every F, so a
search caches ``h`` of a scan class per (trace position, class) rather
than per (trace position, marking).  ``entries`` decodes the raw entry
sets, sorted, only when first read.
"""

from __future__ import annotations

import time
from typing import Optional, Sequence
from weakref import ref

from .errors import SearchBudgetError
from .reachability import ReachabilityGraph

DEFAULT_ENTRY_CAP = 256

Entry = tuple[tuple[tuple[int, int], ...], frozenset[int]]  # (sorted counts, repeatable)
Packed = tuple[int, int]  # (counts, one digit per label; repeatable labels' bits)
# (total count, repeatable, ((label, count, weight), ...)): weight 1 for a
# repeatable label, 2 for any other
ScanEntry = tuple[int, frozenset[int], tuple[tuple[int, int, int], ...]]


class _Digits:
    """A graph's labels, ascending, as digit and bit positions of packed
    entries, with the masks the dominance and set-entry tests read."""

    __slots__ = ("labels", "width", "mask", "unit", "bit", "guards", "ones", "_free", "_omegas")

    def __init__(self, labels: Sequence[int], width: int):
        self.labels = labels
        self.width = width
        self.mask = (1 << width) - 1  # one digit; a counts integer modulo it is its total
        self.unit = {l: 1 << width * i for i, l in enumerate(labels)}
        self.bit = {l: 1 << i for i, l in enumerate(labels)}
        self.guards = sum(1 << width * i + width - 1 for i in range(len(labels)))
        self.ones = sum(self.unit.values())  # every digit 1
        self._free: dict[int, int] = {}  # omega -> digits of the labels outside it
        self._omegas: dict[int, frozenset[int]] = {}

    def free(self, om: int) -> int:
        digits = self._free.get(om)
        if digits is None:
            digits = (1 << self.width * len(self.labels)) - 1
            for i in range(om.bit_length()):
                if om >> i & 1:
                    digits &= ~(self.mask << self.width * i)
            self._free[om] = digits
        return digits

    def omega(self, om: int) -> frozenset[int]:
        labels = self._omegas.get(om)
        if labels is None:
            labels = self._omegas[om] = frozenset(
                l for i, l in enumerate(self.labels) if om >> i & 1)
        return labels

    def counts(self, cnt: int) -> tuple[tuple[int, int], ...]:
        """(label, count) pairs by ascending label."""
        width, mask, labels = self.width, self.mask, self.labels
        out = []
        i = 0
        while cnt:
            c = cnt & mask
            if c:
                out.append((labels[i], c))
            cnt >>= width
            i += 1
        return tuple(out)

    def scan(self, kept: Sequence[Packed]) -> tuple[ScanEntry, ...]:
        """Kept entries in the form ``h`` scans."""
        out = []
        for cnt, om in kept:
            labels = tuple((l, c, 1 if om & self.bit[l] else 2) for l, c in self.counts(cnt))
            out.append((sum(c for _, c, _ in labels), self.omega(om), labels))
        return tuple(out)

    def entries(self, pool: Sequence[Packed]) -> tuple[Entry, ...]:
        """Raw entries decoded and sorted: by counts, then smaller omega,
        then omega's sorted labels."""
        decoded = [(self.counts(cnt), self.omega(om)) for cnt, om in pool]
        return tuple(sorted(decoded, key=lambda e: (e[0], len(e[1]), sorted(e[1]))))


class FutureLabelTable:
    """The future-label estimate of each marking class of ``rg``.

    The searches keep a graph's table on the graph, so the table holds its
    graph through a weak reference: a strong one would make each searched
    graph and its table a reference cycle that only the cyclic collector
    frees.  ``rg`` is the graph while it is alive, and None after.
    """

    __slots__ = ("_rg", "classes", "n_classes", "set_masks", "_forms", "_raw", "_digits",
                 "_entries")

    def __init__(self, rg: ReachabilityGraph, classes: list[int],
                 raw: Sequence[Sequence[Packed]], kept: Sequence[Sequence[Packed]],
                 digits: _Digits):
        """``classes`` per marking id; ``raw`` and ``kept`` per class, its
        packed raw and undominated entries, the latter in scan order."""
        self._rg = ref(rg)
        self.classes = classes
        self.n_classes = len(raw)
        # a set class: one kept entry with no omega and no count above 1,
        # whose counts integer is then the mask of its labels' unit digits
        above_one = ~digits.ones
        self._forms = [entries[0][0] if len(entries) == 1 and not entries[0][1]
                       and not entries[0][0] & above_one else digits.scan(entries)
                       for entries in kept]
        masks = [form if form.__class__ is int else None for form in self._forms]
        self.set_masks = [masks[cls] for cls in classes]  # per marking; None for a scan class
        self._raw = raw
        self._digits = digits
        self._entries: Optional[tuple[tuple[Entry, ...], ...]] = None

    @property
    def rg(self) -> Optional[ReachabilityGraph]:
        return self._rg()

    @property
    def entries(self) -> tuple[tuple[Entry, ...], ...]:
        """Each marking's raw entries, decoded on the first read; markings
        of one class share one tuple."""
        if self._entries is None:
            decoded = [self._digits.entries(pool) for pool in self._raw]
            self._entries = tuple([decoded[cls] for cls in self.classes])
        return self._entries

    def suffixes(self, trace: Sequence[int]) -> tuple[list[dict[int, int]], list[int]]:
        """Per trace position, the labels still in the trace from there on,
        from one backward pass: their counts by label, and the graph's among
        them as a mask of their unit digits (``_Digits.unit``)."""
        unit = self._digits.unit
        counts: list[dict[int, int]] = [{}]
        supports = [0]
        for label in reversed(trace):
            acc = dict(counts[-1])
            acc[label] = acc.get(label, 0) + 1
            counts.append(acc)
            supports.append(supports[-1] | unit.get(label, 0))
        return counts[::-1], supports[::-1]

    def h(self, remaining: dict[int, int], mid: int, size: Optional[int] = None,
          support: Optional[int] = None) -> int:
        """The estimate for remaining trace labels ``remaining`` (of total
        ``size`` and label mask ``support``, as ``suffixes`` gives them,
        each derived from ``remaining`` when not given) at marking ``mid``."""
        form = self._forms[self.classes[mid]]
        if form.__class__ is int:  # a set class's mask
            if size is None:
                size = sum(remaining.values())
            if support is None:
                unit = self._digits.unit
                support = 0
                for l, f in remaining.items():
                    if f:
                        support |= unit.get(l, 0)
            return size + form.bit_count() - 2 * (form & support).bit_count()
        if not form:
            return 0
        if size is None:
            size = sum(remaining.values())
        get = remaining.get
        best = form[0][0] + size + 1  # above the first entry's estimate
        for total, omega, labels in form:
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


def _prune(pool: Sequence[Packed], digits: _Digits) -> Sequence[Packed]:
    """The entries no other entry dominates, by ascending total count, then
    larger omega first, then as given."""
    if len(pool) == 1:
        return pool
    total = digits.mask
    guards = digits.guards
    kept: list[tuple[int, int, int]] = []  # (counts, omega, digits outside omega)
    out = []
    for entry in sorted(pool, key=lambda e: (e[0] % total, -e[1].bit_count())):
        cy, oy = entry
        for cx, ox, free in kept:
            if not oy & ~ox and not (cx ^ cy) & free and ((cy | guards) - cx) & guards == guards:
                break
        else:
            kept.append((cy, oy, digits.free(oy)))
            out.append(entry)
    return out


def precompute_future_labels(rg: ReachabilityGraph, entry_cap: int = DEFAULT_ENTRY_CAP,
                             deadline: Optional[float] = None) -> FutureLabelTable:
    """The graph's future-label table.  Raises ``SearchBudgetError`` once
    ``time.monotonic()`` passes ``deadline``, read on entry, before the
    graph's successor index is built, again once the index and the
    components are built, and before every 1,024th component after the
    first."""
    if not rg.reduced:
        raise ValueError("future labels are computed on a tau-free graph")

    def check_deadline():
        if deadline is not None and time.monotonic() > deadline:
            raise SearchBudgetError("heuristic precompute exceeded the global deadline")

    check_deadline()
    n = len(rg.markings)
    rows = rg.succ
    comp = _tarjan(rows)
    check_deadline()
    ncomp = max(comp) + 1 if n else 0
    digits = _Digits(sorted({s.label for row in rows for s in row}), ncomp.bit_length() + 1)
    unit, bit = digits.unit, digits.bit
    final = {comp[f] for f in rg.finals}
    # no counts, every label repeatable: still optimistic; one tuple for
    # every capped component, so they all share one class
    degenerate = ((0, (1 << len(digits.labels)) - 1),)
    members = sorted(range(n), key=comp.__getitem__)  # by component, then id

    # Tarjan emits components in reverse topological order, so successors of
    # a component are always finished before it
    futures: list[Sequence[Packed]] = [()] * ncomp  # each component's raw entries
    kept: list[Sequence[Packed]] = [()] * ncomp  # and its undominated ones
    p = 0
    for c in range(ncomp):
        if c and not c & 1023:
            check_deadline()
        own = 0  # the labels of arcs inside c, repeatable on every path from it
        steps: dict[tuple[int, int], None] = {}  # (successor component, label)
        while p < n and comp[members[p]] == c:
            for s in rows[members[p]]:
                t = comp[s.tgt]
                if t == c:
                    own |= bit[s.label]
                else:
                    steps[(t, s.label)] = None
            p += 1
        has_final = c in final
        acc: dict[Packed, None] = {(0, own): None} if has_final else {}
        for succ, label in steps:
            u = unit[label]
            for cnt, om in futures[succ]:
                # a successor's own omega int where c adds none: no new int
                acc[(cnt + u, om | own if own else om)] = None
            if len(acc) > entry_cap:
                break
        if len(acc) > entry_cap:
            futures[c] = kept[c] = degenerate
            continue
        pool = futures[c] = tuple(acc)
        # every undominated entry is the final entry or a successor's kept
        # entry bumped on the step's label: prune those when they are fewer
        # (each successor keeps at least one, so check that first)
        if (has_final + len(steps) < len(pool)
                and has_final + sum(len(kept[succ]) for succ, _ in steps) < len(pool)):
            cand: dict[Packed, None] = {(0, own): None} if has_final else {}
            for succ, label in steps:
                u = unit[label]
                for cnt, om in kept[succ]:
                    cand[(cnt + u, om | own)] = None
            pool = tuple(cand)
        kept[c] = _prune(pool, digits)

    by_pool: dict[int, int] = {}  # a raw entry tuple's identity -> its class
    raw: list[Sequence[Packed]] = []
    undominated: list[Sequence[Packed]] = []
    classes = []
    for c in comp:
        cls = by_pool.get(id(futures[c]))
        if cls is None:
            cls = by_pool[id(futures[c])] = len(raw)
            raw.append(futures[c])
            undominated.append(kept[c])
        classes.append(cls)
    return FutureLabelTable(rg, classes, raw, undominated, digits)


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
