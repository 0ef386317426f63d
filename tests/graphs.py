"""Graphs given by their ``Arc`` objects, for tests that build or rewrite a
graph arc by arc rather than through a net."""

from array import array
from itertools import accumulate

from logalign.reachability import ReachabilityGraph, _Rows


def graph_of_arcs(net, markings, m0, finals, arcs, reduced=False):
    """The graph over ``arcs``: each marking's row holds its arcs in ``arcs``
    order, with one kind per (label, trail) pair, and so does its successor
    index.  It has no marking index, so tau removal refuses it."""
    out = [[] for _ in markings]
    for a in arcs:
        out[a.src].append(a)
    kinds: dict = {}
    kind = array("i", [kinds.setdefault((a.label, a.trail), len(kinds))
                       for row in out for a in row])
    rows = _Rows([label for label, _ in kinds], [trail for _, trail in kinds],
                 array("i", accumulate(map(len, out), initial=0)), kind,
                 [a.tgt for row in out for a in row])
    return ReachabilityGraph(net, tuple(markings), m0, frozenset(finals), rows, reduced)
