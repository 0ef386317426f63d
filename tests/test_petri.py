import numpy as np
import pytest

from logalign.errors import NetStructureError, PnmlParseError
from logalign.logs import TAU, LabelTable
from logalign.petri import SystemNet, parse_pnml, validate
from logalign.sampledata import loan_net

from matrices import incidence, marking_vector
from nets import parallel_merge_net, sequence_net

PNML_LOAN = """<?xml version="1.0"?>
<pnml><net id="n1" type="http://www.pnml.org/version-2009/grammar/pnmlcoremodel">
  <place id="start"><initialMarking><text>1</text></initialMarking></place>
  %s
  <place id="end"/>
  <transition id="t0"/>
  <transition id="tA"><name><text>A</text></name></transition>
  <transition id="tB"><name><text>B</text></name></transition>
  <transition id="tC"><name><text>C</text></name></transition>
  <transition id="tD"><name><text>D</text></name></transition>
  <transition id="t5"><name><text>silent join</text></name>
    <toolspecific tool="ProM" version="6.4" activity="$invisible$"/></transition>
  <transition id="tE"><name><text>E</text></name></transition>
  <transition id="tF"><name><text>F</text></name></transition>
  <transition id="tG"><name><text>G</text></name></transition>
  <transition id="tH"><name><text>H</text></name></transition>
  <transition id="tI"><name><text>I</text></name></transition>
  <transition id="t11"><name><text>tau</text></name></transition>
  %s
</net></pnml>
""" % (
    "\n".join('<place id="p%d"/>' % i for i in range(1, 13)),
    "\n".join('<arc id="a%d" source="%s" target="%s"/>' % (i, s, t) for i, (s, t) in enumerate([
        ("start", "t0"), ("t0", "p1"), ("t0", "p2"), ("t0", "p3"), ("t0", "p4"),
        ("p1", "tA"), ("tA", "p5"), ("p2", "tB"), ("tB", "p6"),
        ("p3", "tC"), ("tC", "p7"), ("p4", "tD"), ("tD", "p8"),
        ("p5", "t5"), ("p6", "t5"), ("p7", "t5"), ("p8", "t5"), ("t5", "p9"),
        ("p9", "tE"), ("tE", "p10"), ("p10", "tF"), ("tF", "end"),
        ("p10", "tG"), ("tG", "p11"), ("p11", "tH"), ("tH", "p12"),
        ("p12", "tI"), ("tI", "p9"), ("p11", "t11"), ("t11", "end"),
    ])))


def test_parse_pnml_loan():
    net = parse_pnml(PNML_LOAN)
    assert len(net.places) == 14
    assert len(net.transitions) == 12
    assert sum(1 for t in net.transitions if t.label == TAU) == 3
    assert net.m0 == net.place_bit("start")
    assert net.finals == {net.place_bit("end")}


def test_parse_pnml_minimal_net():
    doc = ('<pnml><net><place id="i"><initialMarking><text>1</text></initialMarking></place>'
           '<place id="o"/><transition id="t"><name><text>A</text></name></transition>'
           '<arc id="a1" source="i" target="t"/><arc id="a2" source="t" target="o"/>'
           '</net></pnml>')
    net = parse_pnml(doc)
    report = validate(net)
    assert report.workflow_ok and report.free_choice and report.uniquely_labelled


MINIMAL_PNML = ('<pnml><net><place id="i"><initialMarking><text>1</text></initialMarking></place>'
                '<place id="o"/><transition id="t"><name><text>A</text></name></transition>'
                '<arc id="a1" source="i" target="t">%s</arc><arc id="a2" source="t" target="o"/>'
                '%s</net></pnml>')


def test_parse_pnml_rejects_a_repeated_arc():
    # summed as bits, a repeated arc would carry into the next place's bit
    doc = MINIMAL_PNML % ("", '<arc id="a3" source="i" target="t"/>')
    with pytest.raises(PnmlParseError, match="i -> t is given twice"):
        parse_pnml(doc)


def test_parse_pnml_arc_weights():
    plain = parse_pnml(MINIMAL_PNML % ("", ""))
    weighted = parse_pnml(MINIMAL_PNML % ("<inscription><text> 1 </text></inscription>", ""))
    assert (weighted.pre, weighted.post) == (plain.pre, plain.post)
    with pytest.raises(PnmlParseError, match="weight 2"):
        parse_pnml(MINIMAL_PNML % ("<inscription><text>2</text></inscription>", ""))


def test_build_rejects_a_place_repeated_in_a_preset_or_postset():
    for pre, post in ((["i", "i"], ["o"]), (["i"], ["o", "o"])):
        with pytest.raises(NetStructureError, match="lists a place twice"):
            SystemNet.build(["i", "o"], [("t", "A", pre, post)])


def test_parse_pnml_two_sinks_rejected():
    doc = ('<pnml><net><place id="i"/><place id="o1"/><place id="o2"/>'
           '<transition id="t"><name><text>A</text></name></transition>'
           '<arc id="a1" source="i" target="t"/><arc id="a2" source="t" target="o1"/>'
           '<arc id="a3" source="t" target="o2"/></net></pnml>')
    with pytest.raises(NetStructureError, match="sink"):
        parse_pnml(doc)


def test_parse_pnml_malformed():
    with pytest.raises(PnmlParseError):
        parse_pnml("<pnml><net>")


def test_parse_pnml_rejects_multi_token_initial_marking():
    doc = ('<pnml><net><place id="i"><initialMarking><text>1</text></initialMarking></place>'
           '<place id="q"><initialMarking><text>1</text></initialMarking></place>'
           '<place id="o"/>'
           '<transition id="t"><name><text>A</text></name></transition>'
           '<transition id="u"><name><text>B</text></name></transition>'
           '<arc id="a1" source="i" target="t"/><arc id="a2" source="t" target="q"/>'
           '<arc id="a3" source="q" target="u"/><arc id="a4" source="u" target="o"/>'
           '</net></pnml>')
    with pytest.raises(NetStructureError):
        parse_pnml(doc)


def test_parse_pnml_initial_marking_is_zero_or_one():
    marked = '<initialMarking><text>%s</text></initialMarking>'
    one = MINIMAL_PNML.replace(marked % "1", marked % " 1 ")
    assert parse_pnml(one % ("", "")).m0 == parse_pnml(MINIMAL_PNML % ("", "")).m0
    for tokens in ("2", "two", "-1", "1.0"):
        with pytest.raises(PnmlParseError, match="initial marking %r" % tokens):
            parse_pnml(MINIMAL_PNML.replace(marked % "1", marked % tokens) % ("", ""))


def test_validate_loan_all_flags():
    report = validate(loan_net())
    assert report.workflow_ok
    assert report.free_choice
    assert report.uniquely_labelled


def test_validate_non_free_choice():
    table = LabelTable()
    net = SystemNet.build(
        ["i", "q", "o"],
        [("t1", "A", ["i", "q"], ["o"]), ("t2", "B", ["i"], ["q"]),
         ("t3", "C", ["i"], ["q", "o"])],
        table)
    assert not validate(net).free_choice


def test_validate_duplicate_labels():
    table = LabelTable()
    net = SystemNet.build(
        ["i", "q", "o"],
        [("t1", "A", ["i"], ["q"]), ("t2", "A", ["q"], ["o"])],
        table)
    assert not validate(net).uniquely_labelled


def test_fire_and_marking_equation():
    net = loan_net()
    m1 = net.fire(net.m0, 0)
    assert net.marking_places(m1) == ("p1", "p2", "p3", "p4")
    with pytest.raises(NetStructureError):
        net.fire(net.m0, 1)  # A needs p1

    # firing-count vector for reaching [p10] through one loop iteration
    names = [t.name for t in net.transitions]
    y = np.zeros(len(names), dtype=np.int64)
    for name, count in {"t_split": 1, "t_A": 1, "t_B": 1, "t_C": 1, "t_D": 1,
                        "t_join": 1, "t_E": 2, "t_G": 1, "t_H": 1, "t_I": 1}.items():
        y[names.index(name)] = count
    N = incidence(net)
    reached = marking_vector(net, net.m0) + N @ y
    assert (reached == marking_vector(net, net.place_bit("p10"))).all()


def test_fire_self_loop_keeps_marking():
    from logalign.petri import Transition

    table = LabelTable()
    net = SystemNet(
        places=("p",), transitions=(Transition("t", table.intern("A")),),
        pre=(1,), post=(1,), m0=1, finals=frozenset({1}), table=table)
    assert net.fire(1, 0) == 1


def test_marking_equation_along_random_firings():
    net = loan_net()
    N = incidence(net)
    rng = np.random.default_rng(7)
    m = net.m0
    counts = np.zeros(len(net.transitions), dtype=np.int64)
    for _ in range(40):
        enabled = [t for t in range(len(net.transitions)) if net.enabled(m, t)]
        if not enabled:
            break
        t = enabled[rng.integers(len(enabled))]
        m = net.fire(m, t)
        counts[t] += 1
        lhs = marking_vector(net, net.m0) + N @ counts
        assert (lhs == marking_vector(net, m)).all()


def test_free_choice_agrees_with_pairwise_definition():
    from gen import random_workflow_net

    nets = [random_workflow_net(seed) for seed in range(25)]
    nets.append(parallel_merge_net())
    nets.append(sequence_net(["A", "B"]))
    for net in nets:
        # pairwise definition: a shared pre-place forces identical singleton presets
        brute = True
        for t1 in range(len(net.transitions)):
            for t2 in range(t1 + 1, len(net.transitions)):
                if net.pre[t1] & net.pre[t2]:
                    if not (net.pre[t1] == net.pre[t2] and bin(net.pre[t1]).count("1") == 1):
                        brute = False
        assert validate(net).free_choice == brute
