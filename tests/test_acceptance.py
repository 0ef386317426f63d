"""Acceptance suite: one test per criterion, with a PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
outcome lines even when everything passes.
"""

import functools
import json
import random
import time

import pytest

from logalign.align import OP_MATCH, OP_RHIDE, align_one_optimal, all_optimal_alignments
from logalign.dafsa import build_dafsa, language
from logalign.invariants import decompose, minimal_place_invariants
from logalign.logs import make_log
from logalign.oracle import brute_force_optimal_cost
from logalign.reachability import build_rg, remove_tau
from logalign.recompose import (EXTENDED_LABEL_CONFLICT, SComponentAligner,
                                hybrid_select, replays_on_model)
from logalign.report import RunConfig, run_conformance
from logalign.sampledata import loan_pair

from gen import random_log, random_workflow_net
from nets import parallel_merge_net, parallel_tasks_net, sequence_net, skippable_parallel_net


def criterion(number, title):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print("ACCEPTANCE %02d %-38s FAIL" % (number, title))
                raise
            print("ACCEPTANCE %02d %-38s PASS" % (number, title))
        return wrapper
    return deco


@pytest.fixture(scope="module")
def loan():
    net, log = loan_pair()
    rg = remove_tau(build_rg(net))
    dafsa = build_dafsa(log)
    return net, log, rg, dafsa


@pytest.fixture(scope="module")
def instance_corpus():
    """Random sound free-choice workflow nets (at most 12 transitions in
    total) paired with noised traces of length at most 10."""
    rng = random.Random(2024)
    corpus = []
    seed = 0
    while len(corpus) < 510 and seed < 3000:
        seed += 1
        net = random_workflow_net(seed, max_visible=6)
        if len(net.transitions) > 12:
            continue
        try:
            rg = remove_tau(build_rg(net))
        except Exception:
            continue
        log = random_log(net, rng, n_traces=3, max_trace_len=10)
        for trace in log.traces:
            corpus.append((net, rg, trace.labels))
            if len(corpus) >= 510:
                break
    assert len(corpus) >= 500
    return corpus


@criterion(1, "running-example DAFSA compression")
def test_c01_dafsa(loan):
    net, log, rg, dafsa = loan
    start = time.perf_counter()
    built = build_dafsa(log)
    assert time.perf_counter() - start < 1.0
    assert language(built) == {t.labels for t in log.traces}
    assert log.total_events == 26
    assert len(built.arcs) == 15


@criterion(2, "tau-removal fidelity on running example")
def test_c02_tau_removal(loan):
    net, log, rg, dafsa = loan
    start = time.perf_counter()
    reduced = remove_tau(build_rg(net))
    assert time.perf_counter() - start < 1.0
    names = {reduced.marking_name(mid) for mid in range(len(reduced.markings))}
    assert "[p1,p2,p3,p4]" not in names
    assert "[p5,p6,p7,p8]" not in names
    g = net.table.lookup("G")
    assert any(
        reduced.marking_name(a.src) == "[p10]" and a.label == g
        and reduced.marking_name(a.tgt) == "[end]"
        for a in reduced.arcs)


@criterion(3, "one-optimal determinism and value")
def test_c03_one_optimal_deterministic(loan, tmp_path):
    net, log, rg, dafsa = loan
    trace = tuple(net.table.lookup(x) for x in "BDCEG")
    expected_ops = [(OP_MATCH, "B"), (OP_MATCH, "D"), (OP_MATCH, "C"),
                    (OP_RHIDE, "A"), (OP_MATCH, "E"), (OP_MATCH, "G")]
    serialized = set()
    for _ in range(10):
        alignment = align_one_optimal(trace, rg)
        got = [(m.op, net.table.text(m.label)) for m in alignment.moves]
        assert got == expected_ops
        assert alignment.cost == 1
        serialized.add(json.dumps(got))
    assert len(serialized) == 1
    # the engine output is byte-identical across runs
    outputs = set()
    for _ in range(2):
        result = run_conformance(net, log, RunConfig(
            strategy="monolithic", emit_alignments=True))
        report = dict(result.report)
        report.pop("timings_ms")
        outputs.add(json.dumps(report, sort_keys=True))
    assert len(outputs) == 1


@criterion(4, "all-optimal enumeration of running example")
def test_c04_all_optimal(loan):
    net, log, rg, dafsa = loan
    trace = tuple(net.table.lookup(x) for x in "BDCEG")
    optima = all_optimal_alignments(trace, rg)
    assert optima.cost == 1
    assert optima.n_optimal == 4
    alignments = optima.alignments()
    assert len(alignments) == 4
    assert all(a.cost == 1 for a in alignments)


@criterion(5, "oracle equivalence on 500+ random instances")
def test_c05_oracle_equivalence(instance_corpus, record_admissibility):
    start = time.perf_counter()
    for net, rg, trace in instance_corpus:
        stats = {}
        alignment = align_one_optimal(trace, rg, stats=stats)
        cost, _ = brute_force_optimal_cost(trace, rg)
        assert alignment.cost == cost
        record_admissibility.append((stats["max_rho_popped"], alignment.cost))
    assert time.perf_counter() - start < 300.0


@pytest.fixture(scope="module")
def record_admissibility():
    return []


@criterion(7, "S-component decomposition of running example")
def test_c07_decomposition(loan):
    net, log, rg, dafsa = loan
    invs = minimal_place_invariants(net)
    expected = {
        (1, 1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1),
        (1, 0, 1, 0, 0, 0, 1, 0, 0, 1, 1, 1, 1, 1),
        (1, 0, 0, 1, 0, 0, 0, 1, 0, 1, 1, 1, 1, 1),
        (1, 0, 0, 0, 1, 0, 0, 0, 1, 1, 1, 1, 1, 1),
    }
    assert {inv.weights for inv in invs} == expected
    decomposition = decompose(net)
    assert len(decomposition.components) == 4
    own = []
    for comp in decomposition.components:
        for t in range(len(comp.net.transitions)):
            assert bin(comp.net.pre[t]).count("1") == 1
            assert bin(comp.net.post[t]).count("1") == 1
        own.append(sorted(x for x in (net.table.text(l) for l in comp.alphabet)
                          if x in "ABCD"))
        comp_rg = build_rg(comp.net)
        assert all(bin(m).count("1") == 1 for m in comp_rg.markings)
    assert sorted(map(tuple, own)) == [("A",), ("B",), ("C",), ("D",)]
    # cover and pre/post component agreement
    assert all(decomposition.place_cover[p] for p in range(len(net.places)))
    assert all(decomposition.transition_cover[t] for t in range(len(net.transitions)))
    for t in range(len(net.transitions)):
        owners = set(decomposition.transition_cover[t])
        pre_cover = set().union(*(set(decomposition.place_cover[p])
                                  for p in net.preset_places(t)))
        post_cover = set().union(*(set(decomposition.place_cover[p])
                                   for p in net.postset_places(t)))
        assert pre_cover == owners == post_cover


@criterion(8, "recomposition propriety on random instances")
def test_c08_recomposition_propriety(instance_corpus):
    aligners = {}
    routed = 0
    for net, rg, trace in instance_corpus:
        if id(net) not in aligners:
            aligners[id(net)] = SComponentAligner(net)
        outcome = aligners[id(net)].align_trace(trace)
        if outcome.alignment is None or outcome.fallback_used:
            continue
        routed += 1
        assert replays_on_model(outcome.alignment, trace, rg)
    assert routed >= 200


@criterion(9, "known over-approximation and hidden conflict")
def test_c09_known_cases():
    net = parallel_merge_net()
    trace = tuple(net.table.lookup(x) for x in "CAB")
    aligner = SComponentAligner(net)
    outcome = aligner.align_trace(trace)
    rg = remove_tau(build_rg(net))
    assert outcome.conflict is None and not outcome.fallback_used
    assert outcome.alignment.cost == 4
    assert brute_force_optimal_cost(trace, rg)[0] == 2
    assert replays_on_model(outcome.alignment, trace, rg)

    net2 = skippable_parallel_net()
    trace2 = tuple(net2.table.lookup(x) for x in "ABD")
    aligner2 = SComponentAligner(net2)
    outcome2 = aligner2.align_trace(trace2)
    rg2 = remove_tau(build_rg(net2))
    assert outcome2.conflict == EXTENDED_LABEL_CONFLICT
    assert outcome2.fallback_used and outcome2.alignment is None
    # the pipeline searches the whole model for the conflicting trace
    (row,) = run_conformance(net2, make_log([trace2], net2.table),
                             RunConfig(strategy="scomponent")).report["traces"]
    assert (row["strategy"], row["conflict"]) == ("s-component+fallback", EXTENDED_LABEL_CONFLICT)
    fallback = align_one_optimal(trace2, rg=rg2)
    assert row["cost"] == fallback.cost == brute_force_optimal_cost(trace2, rg2)[0] == 1
    assert replays_on_model(fallback, trace2, rg2)


@criterion(10, "over-approximation bound on decomposed path")
def test_c10_over_approximation_bound(instance_corpus):
    aligners = {}
    routed = 0
    for net, rg, trace in instance_corpus:
        if routed >= 200:
            break
        if id(net) not in aligners:
            decomposition = decompose(net)
            aligners[id(net)] = (SComponentAligner(net), decomposition)
        aligner, decomposition = aligners[id(net)]
        outcome = aligner.align_trace(trace)
        if outcome.alignment is None or outcome.fallback_used:
            continue
        routed += 1
        k = len(decomposition.components)
        oracle_cost, _ = brute_force_optimal_cost(trace, rg)
        gap = outcome.alignment.cost - oracle_cost
        parallel_labels = {
            net.transitions[t].label for t in range(len(net.transitions))
            if net.transitions[t].label and len(decomposition.transition_cover[t]) < k}
        reps = max([sum(1 for l in trace if l == p) for p in parallel_labels], default=0)
        assert 0 <= gap <= k * reps
    assert routed >= 200


@criterion(11, "hybrid strategy rule and speed-up")
def test_c11_hybrid(loan):
    # rule: eight parallel tasks decompose, a pure sequence does not
    par_net = parallel_tasks_net(["T%d" % i for i in range(8)])
    par_rg = remove_tau(build_rg(par_net))
    par_log = random_log(par_net, random.Random(4), n_traces=1000, max_trace_len=12)
    par_aligner = SComponentAligner(par_net)
    choice, info = hybrid_select(par_rg, par_aligner.component_rgs())
    assert choice == "s-component"
    assert info["rg_size"] > 2 ** 8

    seq_net = sequence_net(["A", "B", "C"])
    seq_rg = remove_tau(build_rg(seq_net))
    seq_aligner = SComponentAligner(seq_net)
    assert hybrid_select(seq_rg, seq_aligner.component_rgs())[0] == "monolithic"

    # directional wall-clock check on the 8-parallel net with 1000 traces
    t0 = time.perf_counter()
    result_s = run_conformance(par_net, par_log, RunConfig(strategy="scomponent"))
    t_scomp = time.perf_counter() - t0
    t0 = time.perf_counter()
    result_m = run_conformance(par_net, par_log, RunConfig(strategy="monolithic"))
    t_mono = time.perf_counter() - t0
    assert t_scomp < t_mono
    for rs, rm in zip(result_s.report["traces"], result_m.report["traces"]):
        assert rs["cost"] >= rm["cost"]


@criterion(12, "heuristic admissibility across searches")
def test_c12_admissibility(record_admissibility):
    assert record_admissibility, "criterion 5 must run first"
    assert len(record_admissibility) >= 500
    for max_rho, cost in record_admissibility:
        assert max_rho <= cost
