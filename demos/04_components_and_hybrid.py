"""Divide and conquer: S-components, recomposition, and the hybrid rule.

Run with:  PYTHONPATH=src python3 demos/04_components_and_hybrid.py
"""

import random

from logalign import (SComponentAligner, build_rg, decompose, hybrid_select,
                      minimal_place_invariants, remove_tau, run_conformance)
from logalign.align import OP_LHIDE, OP_MATCH, OP_RHIDE
from logalign.logs import LabelTable, make_log
from logalign.petri import SystemNet
from logalign.report import RunConfig
from logalign.sampledata import loan_pair

net, log = loan_pair()

print("Each minimal place invariant of the loan net keeps one token flowing:")
for inv in minimal_place_invariants(net):
    print("   support:", ",".join(net.places[p] for p in inv.support))

decomposition = decompose(net)
print("\n%d concurrency-free components, one per parallel check:" % len(decomposition.components))
for comp in decomposition.components:
    print("   component %d alphabet: %s" % (comp.index,
          ",".join(sorted(net.table.text(l) for l in comp.alphabet))))

# built from the net alone, the aligner takes any trace over its labels
aligner = SComponentAligner(net)
sym = {OP_MATCH: "m", OP_LHIDE: "l", OP_RHIDE: "r"}
trace = next(t.labels for t in log.traces if log.texts(t) == tuple("BDAEFG"))
outcome = aligner.align_trace(trace)
print("\nRecomposed alignment for B,D,A,E,F,G (no conflict, no fallback):")
print("   %s" % " ".join("%s(%s)" % (sym[m.op], net.table.text(m.label))
                         for m in outcome.alignment.moves))

# a merge task misplaced before a parallel block over-approximates
table = LabelTable()
merge_net = SystemNet.build(
    ["i", "pa", "pb", "qa", "qb", "p", "o"],
    [("t_split", None, ["i"], ["pa", "pb"]),
     ("t_A", "A", ["pa"], ["qa"]),
     ("t_B", "B", ["pb"], ["qb"]),
     ("t_join", None, ["qa", "qb"], ["p"]),
     ("t_C", "C", ["p"], ["o"])],
    table)
bad_trace = tuple(table.lookup(x) for x in "CAB")
outcome = SComponentAligner(merge_net).align_trace(bad_trace)
print("\nTrace C,A,B on the A||B-then-C net recomposes at cost %d"
      % outcome.alignment.cost)
print("while the true optimum is 2: the divide step trades a little")
print("optimality for a lot of state space.")

# the hybrid rule compares state-space sizes before committing
big_table = LabelTable()
labels = ["T%d" % i for i in range(8)]
rows = [("t_split", None, ["i"], ["a%d" % k for k in range(8)])]
rows += [("t_%s" % l, l, ["a%d" % k], ["b%d" % k]) for k, l in enumerate(labels)]
rows += [("t_join", None, ["b%d" % k for k in range(8)], ["o"])]
parallel8 = SystemNet.build(
    ["i"] + ["a%d" % k for k in range(8)] + ["b%d" % k for k in range(8)] + ["o"],
    rows, big_table)
rg8 = remove_tau(build_rg(parallel8))
aligner8 = SComponentAligner(parallel8)
choice, info = hybrid_select(rg8, aligner8.component_rgs())
print("\nEight parallel tasks: monolithic graph size %d vs %d summed over"
      % (info["rg_size"], info["component_rg_total"]))
print("components, so the hybrid rule picks: %s" % choice)

runs = [tuple(big_table.lookup(l) for l in random.Random(s).sample(labels, 8))
        for s in range(50)]
result = run_conformance(parallel8, make_log(runs, big_table),
                         RunConfig(strategy="auto"))
print("A 50-trace random log aligns with strategy %r at raw fitness cost %d."
      % (result.report["strategy"]["chosen"],
         result.report["aggregates"]["raw_fitness_cost"]))
