"""From a workflow net to its tau-free reachability graph.

Run with:  PYTHONPATH=src python3 demos/02_model_state_space.py
"""

from logalign import build_rg, remove_tau, validate
from logalign.sampledata import loan_net

net = loan_net()
report = validate(net)
print("Loan net: %d places, %d transitions (%d silent)"
      % (len(net.places), len(net.transitions),
         sum(1 for t in net.transitions if t.label == 0)))
print("   workflow shape: %s, free-choice: %s, uniquely labelled: %s"
      % (report.workflow_ok, report.free_choice, report.uniquely_labelled))

rg = build_rg(net)
print("\nRaw reachability graph: %d markings, %d arcs"
      % (len(rg.markings), len(rg.arcs)))
print("   the four parallel checks produce a 2^4 interleaving lattice")

reduced = remove_tau(rg)
print("\nAfter silent-arc removal: %d markings, %d arcs, zero tau arcs"
      % (len(reduced.markings), len(reduced.arcs)))
print("   initial successors are now the visible tasks directly:")
for a in reduced.out[reduced.m0]:
    print("   [start] --%s--> %s" % (net.table.text(a.label), reduced.marking_name(a.tgt)))

print("\nThe closing step absorbed a silent transition:")
g = net.table.lookup("G")
for a in reduced.arcs:
    if a.label == g and reduced.marking_name(a.tgt) == "[end]":
        print("   %s --G--> [end]" % reduced.marking_name(a.src))

print("\nShortest visible run (fitness denominator): %d tasks"
      % reduced.min_visible_skips())
