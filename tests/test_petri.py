import random

import numpy as np
import pytest

from logalign.errors import NetStructureError, PnmlParseError
from logalign.logs import TAU, LabelTable
from logalign.petri import SystemNet, Transition, parse_pnml, validate
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


def test_parse_pnml_rejects_a_repeated_id():
    cases = (
        # a second transition t would take the first one's arcs
        ("t", '<transition id="t"><name><text>C</text></name></transition>'),
        ("o", '<place id="o"/>'),
        ("i", '<transition id="i"><name><text>C</text></name></transition>'),
    )
    for nid, extra in cases:
        with pytest.raises(PnmlParseError, match="id %s is given twice" % nid):
            parse_pnml(MINIMAL_PNML % ("", extra))


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


def reference_strongly_connected_with_reset(net, source, sink):
    """Single SCC over places+transitions once sink->source is added, by
    depth-first search over adjacency lists."""
    nplaces = len(net.places)
    ntrans = len(net.transitions)
    n = nplaces + ntrans
    succ = [[] for _ in range(n)]
    for t in range(ntrans):
        for p in net.preset_places(t):
            succ[p].append(nplaces + t)
        for p in net.postset_places(t):
            succ[nplaces + t].append(p)
    succ[sink].append(source)

    def reach(start, adjacency):
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
    pred = [[] for _ in range(n)]
    for u, vs in enumerate(succ):
        for v in vs:
            pred[v].append(u)
    return reach(source, pred) == n


def reference_connectivity(net):
    """None unless the net passes every workflow check before connectivity,
    else whether it is strongly connected with the reset."""
    consumed = produced = 0
    for t in range(len(net.transitions)):
        consumed |= net.pre[t]
        produced |= net.post[t]
    sources = [p for p in range(len(net.places)) if not produced >> p & 1]
    sinks = [p for p in range(len(net.places)) if not consumed >> p & 1]
    if len(sources) != 1 or len(sinks) != 1:
        return None
    if net.m0 != 1 << sources[0] or net.finals != {1 << sinks[0]}:
        return None
    return reference_strongly_connected_with_reset(net, sources[0], sinks[0])


def pairwise_free_choice(net):
    """A shared pre-place forces identical singleton presets."""
    for t1 in range(len(net.transitions)):
        for t2 in range(t1 + 1, len(net.transitions)):
            if net.pre[t1] & net.pre[t2]:
                if not (net.pre[t1] == net.pre[t2] and bin(net.pre[t1]).count("1") == 1):
                    return False
    return True


def random_arbitrary_net(rng, table):
    """1-8 places, 0-8 transitions with mostly single-place arcs, marked on
    the source and sink places when they are unique, most of the time."""
    nplaces = rng.randint(1, 8)
    everything = (1 << nplaces) - 1

    def mask():
        r = rng.random()
        if r < 0.05:
            return 0
        if r < 0.6:
            return 1 << rng.randrange(nplaces)
        return rng.randint(1, everything)

    ntrans = rng.randint(0, 8)
    pre = tuple(mask() for _ in range(ntrans))
    post = tuple(mask() for _ in range(ntrans))
    transitions = tuple(Transition("t%d" % t, table.intern(rng.choice("ABCDEF")))
                        for t in range(ntrans))
    consumed = produced = 0
    for t in range(ntrans):
        consumed |= pre[t]
        produced |= post[t]
    sources = [p for p in range(nplaces) if not produced >> p & 1]
    sinks = [p for p in range(nplaces) if not consumed >> p & 1]
    m0 = 1 << sources[0] if sources and rng.random() < 0.9 else rng.randint(1, everything)
    final = 1 << sinks[-1] if sinks and rng.random() < 0.9 else rng.randint(1, everything)
    return SystemNet(tuple("p%d" % p for p in range(nplaces)), transitions, pre, post,
                     m0, frozenset({final}), table)


def test_validate_agrees_with_references_on_random_nets():
    rng = random.Random(5)
    table = LabelTable()
    counts = {"workflow": 0, "disconnected": 0, "not free-choice": 0}
    for _ in range(4000):
        net = random_arbitrary_net(rng, table)
        report = validate(net)
        connected = reference_connectivity(net)
        assert report.workflow_ok == bool(connected)
        assert (("net is not strongly connected after adding a reset transition"
                 in report.problems) == (connected is False))
        assert report.free_choice == pairwise_free_choice(net)
        counts["workflow"] += report.workflow_ok
        counts["disconnected"] += connected is False
        counts["not free-choice"] += not report.free_choice
    assert counts["workflow"] > 50 and counts["disconnected"] > 50, counts
    assert counts["not free-choice"] > 1000, counts


def connectivity_pnml(extra_places, arcs):
    """i -A-> o plus the given places and transitions B, C, D."""
    return ('<pnml><net><place id="i"><initialMarking><text>1</text></initialMarking></place>'
            '<place id="o"/>%s<transition id="tA"><name><text>A</text></name></transition>'
            '<transition id="tB"><name><text>B</text></name></transition>'
            '<transition id="tC"><name><text>C</text></name></transition>%s</net></pnml>'
            % ("".join('<place id="%s"/>' % p for p in extra_places),
               "".join('<arc id="a%d" source="%s" target="%s"/>' % (k, s, t)
                       for k, (s, t) in enumerate([("i", "tA"), ("tA", "o")] + arcs))))


def test_parse_pnml_rejects_nets_that_are_not_strongly_connected():
    unreachable_cycle = connectivity_pnml(["c1", "c2"], [("c1", "tB"), ("tB", "c2"),
                                                         ("c2", "tC"), ("tC", "c1")])
    trap = connectivity_pnml(["q"], [("i", "tB"), ("tB", "q"), ("q", "tC"), ("tC", "q")])
    for doc in (unreachable_cycle, trap):
        with pytest.raises(NetStructureError) as info:
            parse_pnml(doc)
        assert str(info.value) == ("not a workflow net: net is not strongly connected "
                                   "after adding a reset transition")


def test_a_long_sequence_is_a_workflow_net_in_either_transition_order():
    net = sequence_net(["L%d" % k for k in range(2000)])
    backwards = SystemNet(net.places, net.transitions[::-1], net.pre[::-1], net.post[::-1],
                          net.m0, net.finals, net.table)
    for candidate in (net, backwards):
        assert validate(candidate).workflow_ok


def test_nets_compare_and_print_by_value_and_are_not_hashable():
    table = LabelTable()
    net, again = (sequence_net(["A", "B"], table) for _ in range(2))
    assert net == again and net != sequence_net(["A", "C"], table)
    assert net != sequence_net(["A", "B"])  # another label table
    assert repr(net).startswith("SystemNet(places=(")
    with pytest.raises(TypeError):
        hash(net)
