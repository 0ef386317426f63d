"""Event logs: label interning, XES parsing and writing.

Only the ``concept:name`` attribute of each event is read; everything else
in an XES document is ignored.  A plain-text fallback format (one trace per
line, comma-separated labels) is supported for fixtures.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Iterable, NamedTuple, Optional

from .errors import XesParseError, XesValidationError

TAU = 0
TAU_TEXT = "τ"

# bytes or characters fed to the XES parser at a time
_CHUNK = 1 << 16


class LabelTable:
    """Bijective interning of activity names to small integer ids.

    Id 0 is reserved for the silent label and never assigned to an event.
    """

    def __init__(self):
        self._texts: list[str] = [TAU_TEXT]
        self._ids: dict[str, int] = {TAU_TEXT: TAU}
        self._rank: Optional[dict[int, int]] = None

    def intern(self, text: str) -> int:
        if text == TAU_TEXT:
            raise XesValidationError("the silent label %r is reserved and may not name an event" % text)
        lid = self._ids.get(text)
        if lid is None:
            lid = len(self._texts)
            self._texts.append(text)
            self._ids[text] = lid
            self._rank = None
        return lid

    def text(self, lid: int) -> str:
        return self._texts[lid]

    def lookup(self, text: str) -> Optional[int]:
        return self._ids.get(text)

    def __len__(self) -> int:
        return len(self._texts)

    def rank(self) -> dict[int, int]:
        """Map label id -> position under lexicographic order of the texts.

        The silent label sorts before every visible label.  The same dict,
        which readers do not change, is returned until a label is interned,
        and a new one after, in which the older labels keep their order.
        """
        if self._rank is None:
            order = sorted(range(1, len(self._texts)), key=lambda i: self._texts[i])
            self._rank = {TAU: 0}
            for pos, lid in enumerate(order, start=1):
                self._rank[lid] = pos
        return self._rank


class Trace:
    """One distinct label sequence and the number of times it occurs."""

    __slots__ = ("labels", "frequency")

    def __init__(self, labels: tuple[int, ...], frequency: int = 1):
        self.labels = labels
        self.frequency = frequency

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.labels == other.labels and self.frequency == other.frequency

    def __hash__(self) -> int:
        return hash((self.labels, self.frequency))

    def __repr__(self) -> str:
        return "Trace(labels=%r, frequency=%r)" % (self.labels, self.frequency)


class EventLog(NamedTuple):
    """Deduplicated event log over an interned alphabet.

    ``traces`` holds one entry per distinct label sequence, sorted by the
    label texts so that downstream output is reproducible.
    """

    traces: tuple[Trace, ...]
    alphabet: frozenset[int]
    total_traces: int
    total_events: int
    table: LabelTable

    def texts(self, trace: Trace) -> tuple[str, ...]:
        return tuple(self.table.text(l) for l in trace.labels)


def make_log(sequences: Iterable[tuple[int, ...] | list[int]], table: LabelTable,
             frequencies: Optional[Iterable[int]] = None) -> EventLog:
    """Build a deduplicated EventLog from raw label-id sequences."""
    counts: dict[tuple[int, ...], int] = {}
    if frequencies is None:
        for seq in sequences:
            counts[tuple(seq)] = counts.get(tuple(seq), 0) + 1
    else:
        for seq, f in zip(sequences, frequencies):
            counts[tuple(seq)] = counts.get(tuple(seq), 0) + f
    traces = tuple(
        Trace(seq, counts[seq])
        for seq in sorted(counts, key=lambda s: tuple(table.text(l) for l in s))
    )
    alphabet = frozenset(l for t in traces for l in t.labels)
    total_traces = sum(t.frequency for t in traces)
    total_events = sum(t.frequency * len(t.labels) for t in traces)
    return EventLog(traces, alphabet, total_traces, total_events, table)


def log_from_texts(sequences: Iterable[Iterable[str]], table: Optional[LabelTable] = None) -> EventLog:
    table = table if table is not None else LabelTable()
    return make_log([tuple(table.intern(x) for x in seq) for seq in sequences], table)


def _localname(tag: str) -> str:
    return tag.rsplit("}", 1)[-1]


def parse_xes(data: bytes | str, table: Optional[LabelTable] = None) -> EventLog:
    """Parse an XES document into a deduplicated EventLog.

    Traces are the root's ``trace`` children and events their ``event``
    children; an event's name is the ``concept:name`` attribute among its
    own children, so attributes nested in containers or lists are ignored.
    Duplicate trace sequences are merged and their frequencies summed.

    The document is streamed: each root child is read once it is complete
    and then dropped, so memory grows with the distinct traces and the
    document's own bytes, not with its element tree.

    Raises XesParseError on malformed XML, and otherwise XesValidationError
    for the first event without a concept:name attribute or named by the
    silent label; a malformed document raises XesParseError even when an
    earlier trace is invalid.
    """
    table = table if table is not None else LabelTable()
    counts: dict[tuple[int, ...], int] = {}
    invalid = None
    trace_index = 0
    for elem in _root_children(data):
        if invalid is not None or _localname(elem.tag) != "trace":
            continue
        labels = []
        try:
            for ev in elem:
                if _localname(ev.tag) != "event":
                    continue
                name = None
                for attr in ev:
                    if attr.get("key") == "concept:name":
                        name = attr.get("value")
                        break
                if name is None:
                    raise XesValidationError(
                        "trace %d: event %d has no concept:name attribute" % (trace_index, len(labels))
                    )
                labels.append(table.intern(name))
        except XesValidationError as exc:
            # raised only once the rest of the document proves well-formed
            invalid = exc
            continue
        labels = tuple(labels)
        counts[labels] = counts.get(labels, 0) + 1
        trace_index += 1
    if invalid is not None:
        raise invalid
    return make_log(counts, table, frequencies=counts.values())


def _root_children(data: bytes | str):
    """Yield the document root's children in order, each once it is complete.

    The parser is fed ``_CHUNK`` characters or bytes at a time.  Every child
    but the last is complete once the parser has read past it, so after each
    feed those children are yielded and deleted from the root; the rest are
    yielded at the end.  Raises XesParseError on malformed XML, possibly
    after yielding children that precede the fault.
    """
    parser = ET.XMLPullParser(("start",))
    root = None
    try:
        for pos in range(0, len(data), _CHUNK):
            parser.feed(data[pos:pos + _CHUNK])
            # drained after every feed, or the queue would hold every element
            for _event, elem in parser.read_events():
                if root is None:
                    root = elem
            if root is not None:
                n = len(root) - 1
                yield from root[:n]
                del root[:n]
        parser.close()
        for _event, elem in parser.read_events():
            if root is None:
                root = elem
    except ET.ParseError as exc:
        raise XesParseError("malformed XES document: %s" % exc) from exc
    yield from root


def write_xes(log: EventLog) -> str:
    """Serialize an EventLog back to XES, one trace element per occurrence."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>', '<log xes.version="1.0">']
    for trace in log.traces:
        for _ in range(trace.frequency):
            out.append("  <trace>")
            for lid in trace.labels:
                out.append('    <event><string key="concept:name" value="%s"/></event>'
                           % _xml_escape(log.table.text(lid)))
            out.append("  </trace>")
    out.append("</log>")
    return "\n".join(out)


def _xml_escape(s: str) -> str:
    return (s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            .replace('"', "&quot;"))


def parse_text_log(data: str, table: Optional[LabelTable] = None) -> EventLog:
    """Fixture format: one trace per line, comma-separated labels."""
    table = table if table is not None else LabelTable()
    sequences = []
    for line in data.splitlines():
        line = line.strip()
        if not line:
            continue
        sequences.append(tuple(table.intern(x.strip()) for x in line.split(",") if x.strip()))
    return make_log(sequences, table)

