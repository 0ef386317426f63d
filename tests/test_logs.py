import random
import tracemalloc
import xml.etree.ElementTree as ET

import pytest

from logalign import logs
from logalign.errors import XesParseError, XesValidationError
from logalign.logs import (LabelTable, Trace, make_log, parse_text_log, parse_xes,
                           write_xes)
from logalign.sampledata import LOAN_TRACES, loan_log

from nets import parallel_tasks_net

XES_LOAN = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0">
%s
</log>
""" % "\n".join(
    "<trace>%s</trace>" % "".join(
        '<event><string key="concept:name" value="%s"/></event>' % x for x in tr)
    for tr in LOAN_TRACES)


def test_parse_xes_running_example():
    log = parse_xes(XES_LOAN)
    assert len(log.traces) == 4
    assert log.total_traces == 4
    assert log.total_events == 26
    texts = {log.texts(t) for t in log.traces}
    assert tuple("BDCEG") in texts
    assert tuple("CABEHIEFG") in texts


def test_parse_xes_duplicate_traces_merge():
    doc = XES_LOAN.replace("</log>", "") + \
        "<trace>" + "".join('<event><string key="concept:name" value="%s"/></event>' % x
                            for x in LOAN_TRACES[0]) + "</trace></log>"
    log = parse_xes(doc)
    assert len(log.traces) == 4
    assert log.total_traces == 5
    by_text = {log.texts(t): t.frequency for t in log.traces}
    assert by_text[tuple("BDCEG")] == 2


def test_parse_xes_empty_log():
    log = parse_xes('<log xes.version="1.0"></log>')
    assert log.traces == ()
    assert log.total_events == 0


def test_parse_xes_malformed_xml():
    with pytest.raises(XesParseError):
        parse_xes("<log><trace>")


def test_parse_xes_event_without_name_names_trace():
    doc = ('<log><trace><event><string key="concept:name" value="A"/></event></trace>'
           '<trace><event><string key="other" value="A"/></event></trace></log>')
    with pytest.raises(XesValidationError, match="trace 1"):
        parse_xes(doc)


def test_event_name_read_from_its_own_attributes_only():
    doc = ('<log><trace><event>'
           '<container key="meta"><string key="concept:name" value="nested"/></container>'
           '<string key="concept:name" value="real"/></event></trace></log>')
    log = parse_xes(doc)
    assert [log.texts(t) for t in log.traces] == [("real",)]
    # a name only inside a container leaves the event unnamed
    doc = ('<log><trace><event>'
           '<container key="meta"><string key="concept:name" value="nested"/></container>'
           '</event></trace></log>')
    with pytest.raises(XesValidationError, match="trace 0: event 0"):
        parse_xes(doc)


def test_traces_read_from_the_root_children_only():
    doc = ('<log><trace><event><string key="concept:name" value="A"/>'
           '<container key="meta"><trace><event><string key="concept:name" value="X"/>'
           '</event></trace></container></event></trace></log>')
    log = parse_xes(doc)
    assert [log.texts(t) for t in log.traces] == [("A",)]
    assert log.total_traces == 1


def test_xes_round_trip():
    log = loan_log()
    again = parse_xes(write_xes(log))
    assert {log.texts(t): t.frequency for t in log.traces} == \
        {again.texts(t): t.frequency for t in again.traces}
    assert again.total_events == log.total_events


def test_namespaced_xes():
    doc = ('<log xmlns="http://www.xes-standard.org/"><trace>'
           '<event><string key="concept:name" value="A"/></event></trace></log>')
    log = parse_xes(doc)
    assert [log.texts(t) for t in log.traces] == [("A",)]


def test_parse_text_log():
    log = parse_text_log("A,B,C\nA,B,C\nB\n")
    by_text = {log.texts(t): t.frequency for t in log.traces}
    assert by_text == {("A", "B", "C"): 2, ("B",): 1}


def test_interning_is_bijective():
    table = LabelTable()
    a = table.intern("A")
    assert table.intern("A") == a
    b = table.intern("B")
    assert a != b
    assert table.text(a) == "A" and table.text(b) == "B"


def test_rank_is_one_dict_until_a_label_is_interned():
    table = LabelTable()
    m, c, x = (table.intern(text) for text in ("M", "C", "X"))
    rank = table.rank()
    assert rank == {0: 0, c: 1, m: 2, x: 3}
    assert table.rank() is rank
    table.intern("C")  # known already: nothing to sort again
    assert table.rank() is rank
    a, n = table.intern("A"), table.intern("N")
    after = table.rank()
    assert after is not rank and table.rank() is after
    assert rank == {0: 0, c: 1, m: 2, x: 3}  # the older dict is left as it was
    assert after == {0: 0, a: 1, c: 2, m: 3, n: 4, x: 5}
    # the older labels keep their relative order, so keys compared on either
    # dict among them compare alike
    older = sorted(rank, key=rank.__getitem__)
    assert sorted(older, key=after.__getitem__) == older



def test_traces_and_logs_compare_hash_and_print_by_value():
    trace = Trace((1, 2), 3)
    assert trace == Trace((1, 2), 3) and hash(trace) == hash(Trace((1, 2), 3))
    assert trace != Trace((1, 2)) and trace != ((1, 2), 3)
    assert repr(trace) == "Trace(labels=(1, 2), frequency=3)"
    assert len(trace) == 2 and not Trace(())
    table = LabelTable()
    assert parse_xes(XES_LOAN, table) == parse_xes(XES_LOAN, table)


def reference_parse_xes(data, table=None):
    """The element-tree parser that ``parse_xes`` replaced, kept as its exact
    reference: it builds the whole document tree, then reads the traces."""
    table = table if table is not None else LabelTable()
    try:
        root = ET.fromstring(data)
    except ET.ParseError as exc:
        raise XesParseError("malformed XES document: %s" % exc) from exc
    sequences = []
    trace_index = 0
    for elem in root:
        if logs._localname(elem.tag) != "trace":
            continue
        labels = []
        for ev in elem:
            if logs._localname(ev.tag) != "event":
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
        sequences.append(tuple(labels))
        trace_index += 1
    return make_log(sequences, table)


def event(name):
    return '<event><string key="concept:name" value="%s"/></event>' % name


def test_malformed_tail_outranks_an_earlier_unnamed_event():
    doc = ('<log><trace>%s</trace><trace><event><string key="other" value="A"/></event></trace>'
           '<trace>%s</trace><trace>' % (event("A"), event("B")))
    with pytest.raises(XesParseError, match="malformed XES document"):
        parse_xes(doc)
    with pytest.raises(XesValidationError, match="trace 1: event 0"):
        parse_xes(doc + "</trace></log>")


def test_malformed_tail_outranks_an_earlier_silent_label():
    doc = '<log><trace>%s%s</trace><trace>%s</log>' % (event("A"), event(logs.TAU_TEXT), event("B"))
    with pytest.raises(XesParseError, match="malformed XES document"):
        parse_xes(doc)
    with pytest.raises(XesValidationError, match="reserved"):
        parse_xes(doc.replace("</log>", "</trace></log>"))


# An XML declaration, a default namespace, log-level extension, global and
# classifier children, a comment between traces, traces nested in a
# container, and a label whose UTF-8 form is several bytes long.
BOUNDARY_DOC = """<?xml version="1.0" encoding="UTF-8"?>
<log xes.version="1.0" xmlns="http://www.xes-standard.org/">
  <extension name="Concept" prefix="concept" uri="http://www.xes-standard.org/concept.xesext"/>
  <global scope="event"><string key="concept:name" value="__INVALID__"/></global>
  <classifier name="Activity" keys="concept:name"/>
  <trace><string key="concept:name" value="case 1"/>
    %(pruefung)s
    <event><container key="meta"><string key="concept:name" value="nested"/></container>
      <string key="concept:name" value="B"/></event>
  </trace>
  <!-- between traces -->
  <container key="meta"><trace>%(hidden)s</trace></container>
  <trace>%(pruefung)s%(a)s</trace>
  <trace>%(pruefung)s</trace>
  <trace>%(pruefung)s%(a)s</trace>
</log>
""" % {"pruefung": event("Prüfung ✓"), "hidden": event("hidden"), "a": event("A")}


def parse_outcome(parse, data):
    try:
        log = parse(data)
    except (XesParseError, XesValidationError) as exc:
        return type(exc), str(exc)
    return ([(log.texts(t), t.frequency) for t in log.traces],
            [log.table.text(l) for l in range(len(log.table))],
            log.total_traces, log.total_events)


def test_streamed_parse_matches_the_tree_parse_at_every_chunk_size(monkeypatch):
    unnamed = BOUNDARY_DOC.replace(event("A"), '<event><string key="other" value="A"/></event>', 1)
    docs = [BOUNDARY_DOC, unnamed, BOUNDARY_DOC[:BOUNDARY_DOC.index("<!--") + 9]]
    assert len("Prüfung ✓".encode()) > len("Prüfung ✓")  # chunk size 1 splits it
    for doc in docs:
        for data in (doc, doc.encode()):
            expected = parse_outcome(reference_parse_xes, data)
            for size in range(1, len(data) + 1):
                monkeypatch.setattr(logs, "_CHUNK", size)
                assert parse_outcome(parse_xes, data) == expected, (size, type(data))
    assert parse_outcome(parse_xes, BOUNDARY_DOC)[0] == \
        [(("Prüfung ✓",), 1), (("Prüfung ✓", "A"), 2), (("Prüfung ✓", "B"), 1)]


def test_streamed_parse_holds_no_document_tree():
    rng = random.Random(1)
    net = parallel_tasks_net(["T%d" % i for i in range(14)])
    visible = [t.label for t in net.transitions if t.label]
    data = write_xes(make_log([rng.sample(visible, len(visible)) for _ in range(2000)],
                              net.table)).encode()

    def peak(parse):
        tracemalloc.start()
        try:
            parse(data)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(parse_xes) < peak(reference_parse_xes) / 4
