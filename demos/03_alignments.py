"""Optimal alignments: one deterministic answer, or the whole optimal set.

Run with:  PYTHONPATH=src python3 demos/03_alignments.py
"""

from logalign import (align_one_optimal, all_optimal_alignments, build_rg,
                      brute_force_optimal_cost, remove_tau)
from logalign.align import OP_LHIDE, OP_MATCH, OP_RHIDE
from logalign.sampledata import loan_pair

net, log = loan_pair()
rg = remove_tau(build_rg(net))


def pretty(alignment):
    sym = {OP_MATCH: "m", OP_LHIDE: "l", OP_RHIDE: "r"}
    return " ".join("%s(%s)" % (sym[m.op], net.table.text(m.label))
                    for m in alignment.moves)


print("One optimal alignment per trace (deterministic across runs):")
for trace in log.traces:
    alignment = align_one_optimal(trace.labels, rg)
    oracle_cost, _ = brute_force_optimal_cost(trace.labels, rg)
    assert alignment.cost == oracle_cost
    print("   %-22s cost %d   %s"
          % (",".join(log.texts(trace)), alignment.cost, pretty(alignment)))

print("\nEvery optimal alignment of B,D,C,E,G (the missing A can be replayed")
print("at four different points), listed from the DAG of cheapest moves:")
trace = next(t.labels for t in log.traces if log.texts(t) == tuple("BDCEG"))
optima = all_optimal_alignments(trace, rg)
for alignment in optima.alignments():
    print("   %s" % pretty(alignment))
print("%d optimal alignments of cost %d; the DAG has %d states with outgoing moves"
      % (optima.n_optimal, optima.cost, len(optima.edges)))
