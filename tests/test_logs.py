import pytest

from logalign.errors import XesParseError, XesValidationError
from logalign.logs import LabelTable, Trace, parse_text_log, parse_xes, write_xes
from logalign.sampledata import LOAN_TRACES, loan_log

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



def test_traces_and_logs_compare_hash_and_print_by_value():
    trace = Trace((1, 2), 3)
    assert trace == Trace((1, 2), 3) and hash(trace) == hash(Trace((1, 2), 3))
    assert trace != Trace((1, 2)) and trace != ((1, 2), 3)
    assert repr(trace) == "Trace(labels=(1, 2), frequency=3)"
    assert len(trace) == 2 and not Trace(())
    table = LabelTable()
    assert parse_xes(XES_LOAN, table) == parse_xes(XES_LOAN, table)
