"""Golden reports for a net of six parallel tasks.

Every future-label class of this net's graph is one entry with no
repeatable label and no count above 1, so the reports pin the estimates
that the heuristic's set-entry form gives to A* and to the all-optimal
sweep, on the ``monolithic`` route with and without ``--all-optimal``.

Regenerate (only when the moves are meant to change) with

    PYTHONPATH=src:tests python tests/test_par6_golden.py
"""

import json
import random
from pathlib import Path

from logalign import align as align_module
from logalign.report import EXIT_OK, RunConfig, run_conformance

from gen import random_log
from nets import parallel_tasks_net

GOLDEN = Path(__file__).parent / "data" / "par6_reports.json"
MODES = {
    "monolithic": RunConfig(strategy="monolithic", emit_alignments=True),
    "monolithic --all-optimal": RunConfig(strategy="monolithic", all_optimal=True,
                                          emit_alignments=True),
}


def par6_report(config):
    """The report, without ``timings_ms``, on a seeded log of 40 distinct
    traces."""
    net = parallel_tasks_net(["T%d" % i for i in range(6)])
    log = random_log(net, random.Random(1), n_traces=40, max_trace_len=10)
    assert len(log.traces) == 40
    result = run_conformance(net, log, config)
    assert result.exit_code == EXIT_OK
    result.report.pop("timings_ms")
    return result.report


def par6_reports():
    """Each mode's report."""
    return {mode: par6_report(config) for mode, config in MODES.items()}


def test_parallel_net_reports_match_the_golden_reports():
    reports = par6_reports()
    golden = json.loads(GOLDEN.read_text())
    for mode in MODES:
        assert reports[mode] == golden[mode], mode
    # ties between optima are exercised
    assert max(r["n_optimal"] for r in golden["monolithic --all-optimal"]["traces"]) > 1


def counting_moves(monkeypatch):
    """A list that gets one item per call of ``align._move``."""
    built = []
    move = align_module._move

    def counted(*args):
        built.append(None)
        return move(*args)

    monkeypatch.setattr(align_module, "_move", counted)
    return built


def test_an_all_optimal_run_without_moves_builds_no_move(monkeypatch):
    """Without ``--emit-alignments`` the sweep counts the optima and builds
    no ``Move``; the rows are the golden rows without their moves."""
    built = counting_moves(monkeypatch)
    golden = json.loads(GOLDEN.read_text())["monolithic --all-optimal"]
    report = par6_report(RunConfig(strategy="monolithic", all_optimal=True))
    assert not built
    for row in golden["traces"]:
        del row["moves"]
    assert report == golden
    assert par6_report(MODES["monolithic --all-optimal"]) == \
        json.loads(GOLDEN.read_text())["monolithic --all-optimal"]
    assert built



def test_an_emitting_all_optimal_run_builds_each_reported_move_once(monkeypatch):
    """Listing each trace's first optimum walks the sweep's tight steps and
    builds the ``Move`` objects of that optimum alone, not the edge DAG."""
    built = counting_moves(monkeypatch)
    report = par6_report(MODES["monolithic --all-optimal"])
    assert len(built) == sum(len(row["moves"]) for row in report["traces"]) > 0


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(par6_reports(), indent=1, sort_keys=True) + "\n")
