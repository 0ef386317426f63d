"""Golden reports for the looping net of the ``loops`` benchmark workload.

The marking classes of this net carry repeatable labels, so the heuristic
reads their scan tuples; its tau removal folds markings, and every trace on
the ``auto`` route falls back to one-optimal A* on the monolithic graph.
The reports pin the moves on the ``auto`` route and on the ``monolithic``
one.

Regenerate (only when the moves are meant to change) with

    PYTHONPATH=src:tests python tests/test_loops_golden.py
"""

import json
import random
from pathlib import Path

from logalign.report import EXIT_OK, RunConfig, run_conformance

from gen import random_log, random_workflow_net

GOLDEN = Path(__file__).parent / "data" / "loops_reports.json"
STRATEGIES = ("auto", "monolithic")


def loops_reports():
    """Each strategy's report, without ``timings_ms``, on a seeded log of 40
    traces."""
    net = random_workflow_net(11, max_visible=30)
    log = random_log(net, random.Random(1), n_traces=40, max_trace_len=30)
    assert len(log.traces) == 40
    reports = {}
    for strategy in STRATEGIES:
        result = run_conformance(net, log, RunConfig(strategy=strategy, emit_alignments=True))
        assert result.exit_code == EXIT_OK
        result.report.pop("timings_ms")
        reports[strategy] = result.report
    return reports


def test_loops_net_reports_match_the_golden_reports():
    reports = loops_reports()
    golden = json.loads(GOLDEN.read_text())
    for strategy in STRATEGIES:
        assert reports[strategy] == golden[strategy], strategy
    # every trace on the auto route takes the monolithic fallback
    assert golden["auto"]["aggregates"]["fallbacks"] == len(golden["auto"]["traces"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(loops_reports(), indent=1, sort_keys=True) + "\n")
