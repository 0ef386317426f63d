import random

import pytest

from logalign.errors import OracleGuardError
from logalign.oracle import (MATCH, brute_force_optimal_cost,
                             enumerate_optimal_move_sequences)
from logalign.reachability import Arc, ReachabilityGraph, build_rg, remove_tau
from logalign.sampledata import loan_net

from gen import noised_trace, random_model_run, random_workflow_net
from graphs import graph_of_arcs
from nets import parallel_merge_net, sequence_net


def ids(net, word):
    return tuple(net.table.lookup(x) for x in word)


def test_oracle_running_example_cost_one():
    net = loan_net()
    rg = remove_tau(build_rg(net))
    cost, witness = brute_force_optimal_cost(ids(net, "BDCEG"), rg)
    assert cost == 1
    assert witness.cost == 1


def test_oracle_perfect_fit_zero():
    net = loan_net()
    rg = remove_tau(build_rg(net))
    cost, witness = brute_force_optimal_cost(ids(net, "BDCAEG"), rg)
    assert cost == 0
    assert all(op == MATCH for op, _ in witness.moves)


def test_oracle_parallel_merge_counterexample():
    net = parallel_merge_net()
    rg = remove_tau(build_rg(net))
    cost, _ = brute_force_optimal_cost(ids(net, "CAB"), rg)
    assert cost == 2


def test_oracle_guard():
    net = sequence_net(["A"])
    rg = remove_tau(build_rg(net))
    with pytest.raises(OracleGuardError):
        brute_force_optimal_cost(ids(net, "A") * 10, rg, guard=10)


def test_oracle_witness_is_proper():
    net = loan_net()
    rg = remove_tau(build_rg(net))
    trace = ids(net, "CABEEG")
    cost, witness = brute_force_optimal_cost(trace, rg)
    spelled = tuple(l for op, l in witness.moves if op != "rhide")
    assert spelled == trace
    assert cost == 2


def test_oracle_reversal_invariance():
    rng = random.Random(3)
    for seed in range(20):
        net = random_workflow_net(seed, max_visible=5)
        try:
            rg = remove_tau(build_rg(net))
        except Exception:
            continue
        if len(rg.finals) != 1:
            continue
        trace = noised_trace(random_model_run(net, rng), net, rng)[:6]
        cost, _ = brute_force_optimal_cost(trace, rg)
        reversed_rg = _reverse(rg)
        rcost, _ = brute_force_optimal_cost(tuple(reversed(trace)), reversed_rg)
        assert cost == rcost, "seed %d" % seed


def _reverse(rg: ReachabilityGraph) -> ReachabilityGraph:
    (final,) = rg.finals
    arcs = tuple(Arc(a.tgt, a.label, a.trail, a.src) for a in rg.arcs)
    return graph_of_arcs(rg.net, rg.markings, final, {rg.m0}, arcs, reduced=True)


def test_enumeration_matches_brute_force_cost():
    net = loan_net()
    rg = remove_tau(build_rg(net))
    trace = ids(net, "BDCEG")
    cstar, seqs = enumerate_optimal_move_sequences(trace, rg)
    assert cstar == 1
    assert len(seqs) == 4  # the missing task can be replayed at four points
    for seq in seqs:
        spelled = tuple(l for op, l, _, _ in seq if op != "rhide")
        assert spelled == trace
