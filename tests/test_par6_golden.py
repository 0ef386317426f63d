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

from logalign.report import EXIT_OK, RunConfig, run_conformance

from gen import random_log
from nets import parallel_tasks_net

GOLDEN = Path(__file__).parent / "data" / "par6_reports.json"
MODES = {
    "monolithic": RunConfig(strategy="monolithic", emit_alignments=True),
    "monolithic --all-optimal": RunConfig(strategy="monolithic", all_optimal=True,
                                          emit_alignments=True),
}


def par6_reports():
    """Each mode's report, without ``timings_ms``, on a seeded log of 40
    distinct traces."""
    net = parallel_tasks_net(["T%d" % i for i in range(6)])
    log = random_log(net, random.Random(1), n_traces=40, max_trace_len=10)
    assert len(log.traces) == 40
    reports = {}
    for mode, config in MODES.items():
        result = run_conformance(net, log, config)
        assert result.exit_code == EXIT_OK
        result.report.pop("timings_ms")
        reports[mode] = result.report
    return reports


def test_parallel_net_reports_match_the_golden_reports():
    reports = par6_reports()
    golden = json.loads(GOLDEN.read_text())
    for mode in MODES:
        assert reports[mode] == golden[mode], mode
    # ties between optima are exercised
    assert max(r["n_optimal"] for r in golden["monolithic --all-optimal"]["traces"]) > 1


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(par6_reports(), indent=1, sort_keys=True) + "\n")
