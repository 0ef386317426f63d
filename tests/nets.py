"""Hand-built nets shared by several test modules."""

from logalign.logs import LabelTable
from logalign.petri import SystemNet


def sequence_net(labels, table=None):
    """i -> l1 -> ... -> ln -> o as a pure sequence."""
    table = table if table is not None else LabelTable()
    places = ["i"] + ["q%d" % k for k in range(1, len(labels))] + ["o"]
    rows = []
    for k, label in enumerate(labels):
        rows.append(("t%d" % k, label, [places[k]], [places[k + 1]]))
    return SystemNet.build(places, rows, table)


def parallel_merge_net(table=None):
    """A and B in parallel, then a shared merge task C."""
    table = table if table is not None else LabelTable()
    places = ["i", "pa", "pb", "qa", "qb", "p", "o"]
    rows = [
        ("t_split", None, ["i"], ["pa", "pb"]),
        ("t_A", "A", ["pa"], ["qa"]),
        ("t_B", "B", ["pb"], ["qb"]),
        ("t_join", None, ["qa", "qb"], ["p"]),
        ("t_C", "C", ["p"], ["o"]),
    ]
    return SystemNet.build(places, rows, table)


def skippable_parallel_net(table=None):
    """A, then parallel B and C where the whole block can be skipped, then D."""
    table = table if table is not None else LabelTable()
    places = ["i", "p1", "p2", "p3", "p4", "p5", "p6", "o"]
    rows = [
        ("t_A", "A", ["i"], ["p1"]),
        ("t_split", None, ["p1"], ["p2", "p4"]),
        ("t_B", "B", ["p2"], ["p3"]),
        ("t_C", "C", ["p4"], ["p5"]),
        ("t_join", None, ["p3", "p5"], ["p6"]),
        ("t_skip", None, ["p1"], ["p6"]),
        ("t_D", "D", ["p6"], ["o"]),
    ]
    return SystemNet.build(places, rows, table)


def parallel_tasks_net(labels, table=None):
    """All labels in one parallel block between silent split and join."""
    table = table if table is not None else LabelTable()
    places = ["i"] + ["a%d" % k for k in range(len(labels))] + \
        ["b%d" % k for k in range(len(labels))] + ["o"]
    rows = [("t_split", None, ["i"], ["a%d" % k for k in range(len(labels))])]
    for k, label in enumerate(labels):
        rows.append(("t_%s" % label, label, ["a%d" % k], ["b%d" % k]))
    rows.append(("t_join", None, ["b%d" % k for k in range(len(labels))], ["o"]))
    return SystemNet.build(places, rows, table)


def and_blocks_net(k, width=3, table=None):
    """k AND blocks in sequence, each a silent split into ``width`` parallel
    tasks and a silent join; the net has width**k S-components."""
    table = table if table is not None else LabelTable()
    places = ["p0"]
    rows = []
    for b in range(k):
        ins = ["a%d_%d" % (b, j) for j in range(width)]
        outs = ["b%d_%d" % (b, j) for j in range(width)]
        places += ins + outs + ["p%d" % (b + 1)]
        rows.append(("split%d" % b, None, ["p%d" % b], ins))
        for j in range(width):
            rows.append(("t%d_%d" % (b, j), "T%d_%d" % (b, j), [ins[j]], [outs[j]]))
        rows.append(("join%d" % b, None, outs, ["p%d" % (b + 1)]))
    return SystemNet.build(places, rows, table)
