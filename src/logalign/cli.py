"""Command-line entry point.

    logalign check --log L.xes --model M.pnml [--strategy auto] [--out report.json]

reads an event log (XES, or the one-trace-per-line text fallback) and a
PNML workflow net, runs conformance checking and writes a JSON report plus
an optional per-trace CSV.  Exit codes: 0 success, 2 unusable input
(including a model that is not 1-bounded or whose silent steps cannot be
removed) or an output path that cannot be written, 3 global timeout, 4
state-space cap hit with the monolithic strategy forced.
"""

from __future__ import annotations

import argparse
import codecs
import json
import sys
from itertools import islice

from .errors import LogAlignError, OracleGuardError
from .logs import LabelTable, parse_text_log, parse_xes
from .petri import parse_pnml
from .reachability import DEFAULT_MARKING_CAP, build_rg, remove_tau
from .report import (EXIT_INPUT_ERROR, STRATEGIES, RunConfig, collector_off, report_to_csv,
                     run_conformance)


def _int_at_least(low: int):
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError("%d is below the minimum %d" % (value, low))
        return value
    parse.__name__ = "integer"  # argparse names the type in its error message
    return parse


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="logalign")
    sub = parser.add_subparsers(dest="command", required=True, metavar="check")

    check = sub.add_parser("check", help="align an event log against a workflow net")
    check.add_argument("--log", required=True, help="XES file (or .txt fallback)")
    check.add_argument("--model", required=True, help="PNML file")
    check.add_argument("--strategy", choices=STRATEGIES, default="auto")
    check.add_argument("--all-optimal", action="store_true",
                       help="enumerate all optimal alignments (monolithic only)")
    check.add_argument("--timeout-ms", type=_int_at_least(0), default=None,
                       help="per-trace alignment deadline")
    check.add_argument("--global-timeout-ms", type=_int_at_least(0), default=None)
    check.add_argument("--state-cap", type=_int_at_least(1), default=DEFAULT_MARKING_CAP,
                       help="maximum number of reachable markings to expand")
    check.add_argument("--out", default=None, help="write the JSON report here")
    check.add_argument("--csv", default=None, help="write the per-trace CSV here")
    check.add_argument("--emit-alignments", action="store_true",
                       help="include move lists in the report")
    check.add_argument("--dot-dir", default=None, help="dump debug graphs here")

    oracle = sub.add_parser("oracle")  # fixture generation; not advertised
    oracle.add_argument("--log", required=True)
    oracle.add_argument("--model", required=True)
    return parser


def _load_inputs(log_path: str, model_path: str):
    table = LabelTable()
    with open(model_path, "rb") as fh:
        net = parse_pnml(fh.read(), table)
    with open(log_path, "rb") as fh:
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    if data.lstrip()[:1] == b"<":
        log = parse_xes(data, table)
    else:
        log = parse_text_log(data.decode("utf-8"), table)
    return net, log


def main(argv=None) -> int:
    """Run one command with the cyclic garbage collector off.

    The collector is left as it was found only once the command's own
    objects are freed, so turning it back on walks none of them: the parsed
    inputs and the report hold no reference cycles, and a collection while
    they live would free nothing.
    """
    with collector_off():
        return _command(argv)


def _command(argv) -> int:
    args = _build_parser().parse_args(argv)
    try:
        net, log = _load_inputs(args.log, args.model)
    except (LogAlignError, OSError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR

    if args.command == "oracle":
        return _run_oracle(net, log)

    config = RunConfig(
        strategy=args.strategy,
        all_optimal=args.all_optimal,
        timeout_ms=args.timeout_ms,
        global_timeout_ms=args.global_timeout_ms,
        state_cap=args.state_cap,
        emit_alignments=args.emit_alignments,
        dot_dir=args.dot_dir,
    )
    try:
        result = run_conformance(net, log, config)
        if args.out:
            with open(args.out, "w") as fh:
                _write_report(result.report, fh)
        else:
            _write_report(result.report, sys.stdout)
        if args.csv:
            with open(args.csv, "w") as fh:
                fh.write(report_to_csv(result.report))
    except (LogAlignError, OSError) as exc:
        # a model that is not 1-bounded or not tau-reducible, or an output
        # path that cannot be written
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    return result.exit_code


def _write_report(report: dict, fh) -> None:
    """Write ``report`` as indented JSON and a newline, a few thousand
    encoder pieces at a time: ``json.dumps`` would first hold every piece of
    a large report in one list, several times the size of its text."""
    pieces = json.JSONEncoder(indent=2, sort_keys=True).iterencode(report)
    while text := "".join(islice(pieces, 4096)):
        fh.write(text)
    fh.write("\n")


def _run_oracle(net, log) -> int:
    """Print each trace's brute-force optimal cost, or ``-`` for a trace
    above the oracle's size guard; such a trace makes the exit code 2 once
    every trace is printed."""
    from .oracle import brute_force_optimal_cost

    try:
        rg = remove_tau(build_rg(net))
    except LogAlignError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT_ERROR
    status = 0
    for idx, trace in enumerate(log.traces):
        try:
            cost, _ = brute_force_optimal_cost(trace.labels, rg)
        except OracleGuardError as exc:
            print("error: trace %d: %s" % (idx, exc), file=sys.stderr)
            cost, status = "-", EXIT_INPUT_ERROR
        print("%d\t%s\t%s" % (idx, cost, ",".join(log.texts(trace))))
    return status


if __name__ == "__main__":
    sys.exit(main())
