"""Labelled workflow system nets: PNML parsing, validation, firing.

Markings of 1-bounded nets are integer bitmasks over a fixed place order.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import NamedTuple, Optional

from .errors import NetStructureError, PnmlParseError
from .logs import TAU, LabelTable, _localname


class Transition(NamedTuple):
    name: str
    label: int  # interned label id, TAU for silent transitions


class SystemNet:
    """A labelled workflow net with an initial and a (set of) final marking(s).

    ``pre[t]`` / ``post[t]`` are place bitmasks of the consumed / produced
    tokens of transition ``t``.  Immutable after construction by convention.
    Two nets are equal when all seven fields are; a net is not hashable.
    """

    __slots__ = ("places", "transitions", "pre", "post", "m0", "finals", "table",
                 "_firing_tables")  # the last is kept by recompose, once built

    def __init__(self, places: tuple[str, ...], transitions: tuple[Transition, ...],
                 pre: tuple[int, ...], post: tuple[int, ...], m0: int, finals: frozenset[int],
                 table: LabelTable):
        self.places = places
        self.transitions = transitions
        self.pre = pre
        self.post = post
        self.m0 = m0
        self.finals = finals
        self.table = table

    def _fields(self) -> tuple:
        return (self.places, self.transitions, self.pre, self.post, self.m0, self.finals,
                self.table)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __repr__(self) -> str:
        return ("SystemNet(places=%r, transitions=%r, pre=%r, post=%r, m0=%r, finals=%r, table=%r)"
                % self._fields())

    # -- queries -------------------------------------------------------

    def place_bit(self, name: str) -> int:
        return 1 << self.places.index(name)

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


class ValidationReport(NamedTuple):
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
    all_pre = all_post = shared = 0  # shared: places with two or more consumers
    for t in range(len(net.transitions)):
        shared |= all_pre & net.pre[t]
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

    # a shared place breaks free choice when one of its consumers also
    # consumes from another place
    unfree = 0
    for b in net.pre:
        if b & (b - 1):
            unfree |= b & shared
    free_choice = not unfree
    for p in range(nplaces):
        if unfree >> p & 1:
            problems.append("place %s is shared by transitions with non-singleton presets"
                            % net.places[p])

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
    """Single SCC over places+transitions once a reset transition sink->source is added.

    The source place has no producer, so the reset is its only way in: it
    adds nothing to what the source reaches, and a node reaches the source
    exactly when it reaches the sink.  The net is therefore strongly
    connected with the reset exactly when every place and transition is
    reached forward from the source and backward from the sink.
    """
    everything = (1 << len(net.places)) - 1
    return (_reaches_everything(net.pre, net.post, 1 << source, everything)
            and _reaches_everything(net.post, net.pre, 1 << sink, everything))


def _reaches_everything(ins, outs, start: int, everything: int) -> bool:
    """Close the place mask ``start`` under "a transition whose ``ins`` meet
    the reached places adds its ``outs``" and check that the closure holds
    every place and meets every transition's ``ins``.  The sweeps over the
    transitions alternate direction, so a chain listed in either order
    settles in a few sweeps."""
    order = list(zip(ins, outs))
    reached = start
    grown = True
    while grown:
        grown = False
        for i, o in order:
            if i & reached and o & ~reached:
                reached |= o
                grown = True
        order.reverse()
    return reached == everything and all(i & reached for i in ins)


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
            if _localname(child.tag) == "name":
                for sub in child.iter():
                    if _localname(sub.tag) == "text":
                        return (sub.text or "").strip()
        return None

    ids: set[str] = set()
    for elem in root.iter():
        tag = _localname(elem.tag)
        if tag in ("place", "transition"):
            nid = elem.get("id")
            if nid is None:
                raise PnmlParseError("%s without id" % tag)
            if nid in ids:
                raise PnmlParseError("place or transition id %s is given twice" % nid)
            ids.add(nid)
        if tag == "place":
            places.append(nid)
            for child in elem.iter():
                if _localname(child.tag) == "initialMarking":
                    for sub in child.iter():
                        if _localname(sub.tag) != "text":
                            continue
                        tokens = (sub.text or "").strip()
                        if tokens not in ("", "0", "1"):
                            raise PnmlParseError("place %s: initial marking %r is not 0 or 1"
                                                 % (nid, tokens))
                        if tokens == "1":
                            marked.append(nid)
        elif tag == "transition":
            name = text_of(elem)
            invisible = False
            for child in elem.iter():
                if _localname(child.tag) == "toolspecific":
                    activity = child.get("activity", "")
                    if activity == "$invisible$" or child.get("invisible", "").lower() == "true":
                        invisible = True
            if invisible or name is None or name == "" or name.lower() in _TAU_NAMES:
                trans_rows.append((nid, None))
            else:
                trans_rows.append((nid, name))
        elif tag == "arc":
            src, tgt = elem.get("source"), elem.get("target")
            if src is None or tgt is None:
                raise PnmlParseError("arc without source/target")
            if (src, tgt) in arcs:
                raise PnmlParseError("arc %s -> %s is given twice" % (src, tgt))
            for child in elem.iter():
                if _localname(child.tag) == "inscription":
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


def dot_string(text: str) -> str:
    """``text`` as a quoted Graphviz string: backslashes and double quotes
    escaped."""
    return '"%s"' % text.replace("\\", "\\\\").replace('"', '\\"')


def net_to_dot(net: SystemNet) -> str:
    """Graphviz rendering of the net, silent transitions drawn black."""
    lines = ["digraph net {", "  rankdir=LR;"]
    for i, p in enumerate(net.places):
        marks = []
        if net.m0 >> i & 1:
            marks.append("&bull;")
        lines.append("  p%d [shape=circle, label=%s];" % (i, dot_string(p + "".join(marks))))
    for t, tr in enumerate(net.transitions):
        if tr.label == TAU:
            lines.append('  t%d [shape=box, style=filled, fillcolor=black, label=""];' % t)
        else:
            lines.append("  t%d [shape=box, label=%s];" % (t, dot_string(net.table.text(tr.label))))
        for p in net.preset_places(t):
            lines.append("  p%d -> t%d;" % (p, t))
        for p in net.postset_places(t):
            lines.append("  t%d -> p%d;" % (t, p))
    lines.append("}")
    return "\n".join(lines)
