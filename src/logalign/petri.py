"""Labelled workflow system nets: PNML parsing, validation, firing.

Markings of 1-bounded nets are integer bitmasks over a fixed place order.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Optional

from .errors import NetStructureError, PnmlParseError
from .logs import TAU, LabelTable


@dataclass(frozen=True)
class Transition:
    name: str
    label: int  # interned label id, TAU for silent transitions


@dataclass
class SystemNet:
    """A labelled workflow net with an initial and a (set of) final marking(s).

    ``pre[t]`` / ``post[t]`` are place bitmasks of the consumed / produced
    tokens of transition ``t``.  Immutable after construction by convention.
    """

    places: tuple[str, ...]
    transitions: tuple[Transition, ...]
    pre: tuple[int, ...]
    post: tuple[int, ...]
    m0: int
    finals: frozenset[int]
    table: LabelTable
    _place_index: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        self._place_index = {p: i for i, p in enumerate(self.places)}

    # -- queries -------------------------------------------------------

    def place_bit(self, name: str) -> int:
        return 1 << self._place_index[name]

    def marking_places(self, m: int) -> tuple[str, ...]:
        return tuple(p for i, p in enumerate(self.places) if m >> i & 1)

    def marking_name(self, m: int) -> str:
        return "[%s]" % ",".join(self.marking_places(m))

    def enabled(self, m: int, t: int) -> bool:
        return self.pre[t] & m == self.pre[t]

    def fire(self, m: int, t: int) -> int:
        """m - pre(t) + post(t); raises if t is not enabled at m."""
        if not self.enabled(m, t):
            raise NetStructureError(
                "transition %s not enabled at %s" % (self.transitions[t].name, self.marking_name(m)))
        return (m & ~self.pre[t]) | self.post[t]

    def fire_overflows(self, m: int, t: int) -> bool:
        """True when firing t at m would put a second token on some place."""
        return bool((m & ~self.pre[t]) & self.post[t])

    def preset_places(self, t: int) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.places)) if self.pre[t] >> i & 1)

    def postset_places(self, t: int) -> tuple[int, ...]:
        return tuple(i for i in range(len(self.places)) if self.post[t] >> i & 1)

    def place_consumers(self, p: int) -> tuple[int, ...]:
        return tuple(t for t in range(len(self.transitions)) if self.pre[t] >> p & 1)

    # -- construction helpers ------------------------------------------

    @classmethod
    def build(cls, places: list[str], transitions: list[tuple[str, Optional[str], list[str], list[str]]],
              table: Optional[LabelTable] = None, initial: Optional[str] = None,
              final: Optional[str] = None) -> "SystemNet":
        """Construct from (name, label-or-None, preset names, postset names) rows.

        Label None means silent.  Initial/final places default to the unique
        source/sink of the flow relation.
        """
        table = table if table is not None else LabelTable()
        index = {p: i for i, p in enumerate(places)}
        trans = []
        pre = []
        post = []
        for name, label, ins, outs in transitions:
            if len(set(ins)) < len(ins) or len(set(outs)) < len(outs):
                raise NetStructureError("transition %s lists a place twice in its preset "
                                        "or postset" % name)
            lid = TAU if label is None else table.intern(label)
            trans.append(Transition(name, lid))
            pre.append(sum(1 << index[p] for p in ins))
            post.append(sum(1 << index[p] for p in outs))
        all_pre = 0
        all_post = 0
        for b in pre:
            all_pre |= b
        for b in post:
            all_post |= b
        if initial is None:
            sources = [p for p in places if not (all_post >> index[p] & 1)]
            if len(sources) != 1:
                raise NetStructureError("no unique source place, found %s" % sources)
            initial = sources[0]
        if final is None:
            sinks = [p for p in places if not (all_pre >> index[p] & 1)]
            if len(sinks) != 1:
                raise NetStructureError("no unique sink place, found %s" % sinks)
            final = sinks[0]
        return cls(tuple(places), tuple(trans), tuple(pre), tuple(post),
                   1 << index[initial], frozenset({1 << index[final]}), table)


@dataclass(frozen=True)
class ValidationReport:
    workflow_ok: bool
    free_choice: bool
    uniquely_labelled: bool
    problems: tuple[str, ...]

    @property
    def decomposable(self) -> bool:
        return self.workflow_ok and self.free_choice and self.uniquely_labelled


def validate(net: SystemNet) -> ValidationReport:
    """Check workflow shape, free-choiceness and unique labelling."""
    problems = []
    nplaces = len(net.places)
    all_pre = 0
    all_post = 0
    for t in range(len(net.transitions)):
        all_pre |= net.pre[t]
        all_post |= net.post[t]
        if net.pre[t] == 0 or net.post[t] == 0:
            problems.append("transition %s has an empty pre- or postset" % net.transitions[t].name)
    sources = [p for p in range(nplaces) if not (all_post >> p & 1)]
    sinks = [p for p in range(nplaces) if not (all_pre >> p & 1)]
    workflow_ok = True
    if len(sources) != 1:
        workflow_ok = False
        problems.append("source places: %s" % [net.places[p] for p in sources])
    if len(sinks) != 1:
        workflow_ok = False
        problems.append("sink places: %s" % [net.places[p] for p in sinks])
    if workflow_ok and net.m0 != 1 << sources[0]:
        workflow_ok = False
        problems.append("initial marking is not one token on the source place")
    if workflow_ok and net.finals != {1 << sinks[0]}:
        workflow_ok = False
        problems.append("final markings are not one token on the sink place")
    if workflow_ok and not _strongly_connected_with_reset(net, sources[0], sinks[0]):
        workflow_ok = False
        problems.append("net is not strongly connected after adding a reset transition")

    free_choice = True
    for p in range(nplaces):
        consumers = net.place_consumers(p)
        if len(consumers) > 1:
            for t in consumers:
                if net.pre[t] != 1 << p:
                    free_choice = False
                    problems.append("place %s is shared by transitions with non-singleton presets"
                                    % net.places[p])
                    break

    seen: dict[int, str] = {}
    uniquely_labelled = True
    for t in net.transitions:
        if t.label == TAU:
            continue
        if t.label in seen:
            uniquely_labelled = False
            problems.append("label %s used by transitions %s and %s"
                            % (net.table.text(t.label), seen[t.label], t.name))
        else:
            seen[t.label] = t.name
    return ValidationReport(workflow_ok, free_choice, uniquely_labelled, tuple(problems))


def _strongly_connected_with_reset(net: SystemNet, source: int, sink: int) -> bool:
    """Single SCC over places+transitions once sink->source is added."""
    nplaces = len(net.places)
    ntrans = len(net.transitions)
    n = nplaces + ntrans
    succ: list[list[int]] = [[] for _ in range(n)]
    for t in range(ntrans):
        for p in net.preset_places(t):
            succ[p].append(nplaces + t)
        for p in net.postset_places(t):
            succ[nplaces + t].append(p)
    succ[sink].append(source)

    def reach(start: int, adjacency: list[list[int]]) -> int:
        seen = {start}
        stack = [start]
        while stack:
            for v in adjacency[stack.pop()]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        return len(seen)

    if reach(source, succ) != n:
        return False
    pred: list[list[int]] = [[] for _ in range(n)]
    for u, vs in enumerate(succ):
        for v in vs:
            pred[v].append(u)
    return reach(source, pred) == n


_TAU_NAMES = {"tau", "τ", "invisible", "none"}


def parse_pnml(data: bytes | str, table: Optional[LabelTable] = None) -> SystemNet:
    """Parse a PNML document into a validated workflow system net.

    Transitions without a name, named tau/invisible, or flagged invisible in
    a toolspecific element become silent.  The initial marking comes from
    initialMarking annotations of 0 or 1 tokens, defaulting to one token on
    the unique source place; the final marking is one token on the unique
    sink place.
    """
    table = table if table is not None else LabelTable()
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise PnmlParseError("malformed PNML document: %s" % exc) from exc

    places: list[str] = []
    marked: list[str] = []
    trans_rows: list[tuple[str, Optional[str]]] = []
    arcs: dict[tuple[str, str], None] = {}  # in document order

    def text_of(elem) -> Optional[str]:
        for child in elem:
            if child.tag.rsplit("}", 1)[-1] == "name":
                for sub in child.iter():
                    if sub.tag.rsplit("}", 1)[-1] == "text":
                        return (sub.text or "").strip()
        return None

    for elem in root.iter():
        tag = elem.tag.rsplit("}", 1)[-1]
        if tag == "place":
            pid = elem.get("id")
            if pid is None:
                raise PnmlParseError("place without id")
            places.append(pid)
            for child in elem.iter():
                if child.tag.rsplit("}", 1)[-1] == "initialMarking":
                    for sub in child.iter():
                        if sub.tag.rsplit("}", 1)[-1] != "text":
                            continue
                        tokens = (sub.text or "").strip()
                        if tokens not in ("", "0", "1"):
                            raise PnmlParseError("place %s: initial marking %r is not 0 or 1"
                                                 % (pid, tokens))
                        if tokens == "1":
                            marked.append(pid)
        elif tag == "transition":
            tid = elem.get("id")
            if tid is None:
                raise PnmlParseError("transition without id")
            name = text_of(elem)
            invisible = False
            for child in elem.iter():
                if child.tag.rsplit("}", 1)[-1] == "toolspecific":
                    activity = child.get("activity", "")
                    if activity == "$invisible$" or child.get("invisible", "").lower() == "true":
                        invisible = True
            if invisible or name is None or name == "" or name.lower() in _TAU_NAMES:
                trans_rows.append((tid, None))
            else:
                trans_rows.append((tid, name))
        elif tag == "arc":
            src, tgt = elem.get("source"), elem.get("target")
            if src is None or tgt is None:
                raise PnmlParseError("arc without source/target")
            if (src, tgt) in arcs:
                raise PnmlParseError("arc %s -> %s is given twice" % (src, tgt))
            for child in elem.iter():
                if child.tag.rsplit("}", 1)[-1] == "inscription":
                    weight = "".join(child.itertext()).strip()
                    if weight not in ("", "1"):
                        raise PnmlParseError("arc %s -> %s has weight %s; only weight 1 "
                                             "is supported" % (src, tgt, weight))
            arcs[src, tgt] = None

    place_set = set(places)
    trans_ids = {tid for tid, _ in trans_rows}
    pre_names: dict[str, list[str]] = {tid: [] for tid in trans_ids}
    post_names: dict[str, list[str]] = {tid: [] for tid in trans_ids}
    for src, tgt in arcs:
        if src in place_set and tgt in trans_ids:
            pre_names[tgt].append(src)
        elif src in trans_ids and tgt in place_set:
            post_names[src].append(tgt)
        else:
            raise PnmlParseError("arc %s -> %s does not connect a place and a transition" % (src, tgt))

    rows = [(tid, label, pre_names[tid], post_names[tid]) for tid, label in trans_rows]
    net = SystemNet.build(places, rows, table, initial=marked[0] if len(marked) == 1 else None)
    if len(marked) > 1:
        index = {p: i for i, p in enumerate(places)}
        net = SystemNet(net.places, net.transitions, net.pre, net.post,
                        sum(1 << index[p] for p in marked), net.finals, table)
    report = validate(net)
    if not report.workflow_ok:
        raise NetStructureError("not a workflow net: %s" % "; ".join(report.problems))
    return net


def net_to_dot(net: SystemNet) -> str:
    """Graphviz rendering of the net, silent transitions drawn black."""
    lines = ["digraph net {", "  rankdir=LR;"]
    for i, p in enumerate(net.places):
        marks = []
        if net.m0 >> i & 1:
            marks.append("&bull;")
        lines.append('  p%d [shape=circle, label="%s%s"];' % (i, p, "".join(marks)))
    for t, tr in enumerate(net.transitions):
        if tr.label == TAU:
            lines.append('  t%d [shape=box, style=filled, fillcolor=black, label=""];' % t)
        else:
            lines.append('  t%d [shape=box, label="%s"];' % (t, net.table.text(tr.label)))
        for p in net.preset_places(t):
            lines.append("  p%d -> t%d;" % (p, t))
        for p in net.postset_places(t):
            lines.append("  t%d -> p%d;" % (t, p))
    lines.append("}")
    return "\n".join(lines)
