"""Golden reports for the random net of the ``mixed`` benchmark workload.

Most traces of this net's logs conflict between S-components and fall back
to one-optimal A* on the monolithic graph, so the reports pin the moves
that the heuristic's estimates and the search's tie order produce, on the
``auto`` route and on the ``monolithic`` one.

Regenerate (only when the moves are meant to change) with

    PYTHONPATH=src:tests python tests/test_mixed_golden.py
"""

import json
import random
from pathlib import Path

from logalign.report import EXIT_OK, RunConfig, run_conformance

from gen import random_log, random_workflow_net

GOLDEN = Path(__file__).parent / "data" / "mixed_reports.json"
STRATEGIES = ("auto", "monolithic")


def mixed_reports():
    """Each strategy's report, without ``timings_ms``, on a seeded log of 60
    distinct traces."""
    net = random_workflow_net(12, max_visible=30)
    log = random_log(net, random.Random(1), n_traces=60, max_trace_len=30)
    assert len(log.traces) == 60
    reports = {}
    for strategy in STRATEGIES:
        result = run_conformance(net, log, RunConfig(strategy=strategy, emit_alignments=True))
        assert result.exit_code == EXIT_OK
        result.report.pop("timings_ms")
        reports[strategy] = result.report
    return reports


def test_mixed_net_reports_match_the_golden_reports():
    reports = mixed_reports()
    golden = json.loads(GOLDEN.read_text())
    for strategy in STRATEGIES:
        assert reports[strategy] == golden[strategy], strategy
    # the auto route takes the monolithic fallback on most traces
    fallbacks = golden["auto"]["aggregates"]["fallbacks"]
    assert fallbacks * 2 > len(golden["auto"]["traces"])


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(mixed_reports(), indent=1, sort_keys=True) + "\n")
