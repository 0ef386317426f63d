"""Conformance benchmark: ``logalign check`` end to end, plus a traced
per-layer breakdown.

    python3 perfbench/run.py --workload concurrent --seed 1 --seconds 28 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Each workload is a closed loop with one client: one ``logalign check``
process at a time, with the default single worker thread, on a PNML model
and one of LOGS_PER_RUN XES logs generated from the seed (``workloads.py``).
Processes are started back to back, cycling through the logs, until
``--seconds`` is used up (at least three, and each log once), and every
timing is the median over them.

Timings are reported in reference seconds.  A shared host changes speed by
up to a quarter over seconds, which no median within one run removes, so a
fixed pure-Python reference loop is timed just before and after every
process, and the process's host seconds are scaled by REFERENCE_S over the
loop's time.  The raw wall time is printed next to the scaled one.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` first repeats a
shorter untraced loop on the first log for the tracing-overhead base, times ``import
logalign`` in fresh interpreters, then makes one traced run
(``tracer.py``) and prints the per-layer metrics (``layers.py``); the raw
spans go to ``perfbench/out/<workload>-<seed>/spans.json``.

Outputs are checked outside every timed region: every process exits 0,
completed plus failed traces equal the distinct traces, every fitness lies
in [0, 1], costs agree between runs of the same log, a seeded sample of
traces matches the brute-force oracle (equal on monolithic routes, never
lower on recomposed ones) and, with ``--all-optimal``, every completed
trace has at least one optimal alignment.  A failed check counts the trace
as failed and makes the command exit 1.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Optional

from layers import format_table, layer_metrics, load_catalog, load_units, report_summary
from stats import cost_per_trace, median, quartiles, ratio, run_figures

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
MEASURE = os.path.join(HERE, "measure.py")

MIN_RUNS = 3
LOGS_PER_RUN = 5
ORACLE_SAMPLE = 20  # traces per log checked against the brute-force oracle
IMPORT_RUNS = 5
RUN_LIMIT_S = 170.0  # every child is killed by then, so the command ends within 180 s
REFERENCE_S = 0.06  # the reference loop's time at the reference speed


def reference_loop() -> int:
    """Fixed pure-Python work like the program's: integer arithmetic, then
    building and reading a dict of tuples."""
    s = 0
    for i in range(300_000):
        s += i * i % 7
    d = {}
    for i in range(60_000):
        d[(i, i * 7 % 13)] = [i]
    for k in d:
        s += d[k][0]
    return s


def reference_time() -> float:
    """Median time of three reference loops: how fast the host runs now."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - t0)
    return median(times)


@dataclass
class Run:
    wall_s: float
    exit_code: int
    rss_mb: float
    report: Optional[dict]
    stderr: str
    scale: float = 1.0  # reference seconds per host second around this run
    part: int = 0  # which of the run's logs it aligned


def spawn(argv, out_path, err_path, hard_deadline) -> Run:
    """Run one child process with ``src`` on its path, through ``measure.py``,
    which times it from spawn to exit and reads its peak resident memory."""
    env = dict(os.environ, PYTHONPATH=SRC)
    if os.path.exists(out_path):
        os.remove(out_path)
    limit = max(1.0, hard_deadline - time.monotonic())
    with open(err_path, "w+") as err:
        # a session of its own, so a stuck child can be killed with measure.py
        proc = subprocess.Popen([sys.executable, MEASURE, "--timeout", "%.3f" % limit, "--", *argv],
                                cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=err, text=True,
                                start_new_session=True)
        try:
            out, _ = proc.communicate(timeout=limit + 5.0)
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        err.seek(0)
        stderr = err.read()
    measured = json.loads(out)
    report = None
    if os.path.exists(out_path):
        with open(out_path) as fh:
            report = json.load(fh)
    return Run(measured["wall_s"], measured["exit_code"], measured["rss_mb"], report, stderr)


class Bench:
    """One workload at one seed: its model, its logs, its runs and their checks.

    A run cycles through LOGS_PER_RUN logs drawn independently from the
    seed, so its medians describe the workload's kind of log rather than one
    sample of it: a few expensive traces make single logs differ by a sixth
    in search effort on ``mixed``.
    """

    def __init__(self, name: str, seed: int, hard_deadline: float):
        import workloads

        self.w = workloads.WORKLOADS[name]
        self.seed = seed
        self.hard_deadline = hard_deadline
        self.dir = os.path.join(OUT, "%s-%d" % (name, seed))
        os.makedirs(self.dir, exist_ok=True)
        self.net = workloads.build_model(self.w)
        self.model_path = os.path.join(self.dir, "model.pnml")
        workloads.write_model(self.net, self.model_path)
        self.logs = [workloads.sample_log(self.w, self.net, seed, part)
                     for part in range(LOGS_PER_RUN)]
        self.log_paths = [os.path.join(self.dir, "log-%d.xes" % part)
                          for part in range(LOGS_PER_RUN)]
        for log, path in zip(self.logs, self.log_paths):
            workloads.write_log(log, path)
        self.distinct = self.w.distinct
        self.shape = workloads.input_shape(self.net, self.logs[0])
        catalog = load_catalog()
        self.input_problems = self._round_trip_problems()
        for part, log in enumerate(self.logs):
            self.input_problems += workloads.check_shape(
                name, workloads.input_shape(self.net, log), catalog,
                pin_events=seed == workloads.DEFAULT_SEED and part == 0)
        self._rg = None

    def _round_trip_problems(self) -> list[str]:
        """The written files must parse back into the generated inputs."""
        from logalign.logs import LabelTable, parse_xes
        from logalign.petri import parse_pnml

        def net_key(n):
            return (n.places, [(t.name, n.table.text(t.label)) for t in n.transitions],
                    n.pre, n.post, n.m0, n.finals)

        def log_key(g):
            return [(g.texts(t), t.frequency) for t in g.traces]

        problems = []
        for part, (log, path) in enumerate(zip(self.logs, self.log_paths)):
            table = LabelTable()
            with open(self.model_path, "rb") as fh:
                net = parse_pnml(fh.read(), table)
            with open(path, "rb") as fh:
                parsed = parse_xes(fh.read(), table)
            if part == 0 and net_key(net) != net_key(self.net):
                problems.append("PNML does not parse back into the generated net")
            if log_key(parsed) != log_key(log):
                problems.append("log %d: XES does not parse back into the generated log" % part)
        return problems

    def check_run(self, part: int) -> Run:
        out = os.path.join(self.dir, "report.json")
        argv = [sys.executable, "-m", "logalign.cli", "check", "--log", self.log_paths[part],
                "--model", self.model_path, "--out", out, *self.w.cli_args]
        run = spawn(argv, out, os.path.join(self.dir, "stderr.txt"), self.hard_deadline)
        run.part = part
        return run

    def traced_run(self) -> Run:
        out = os.path.join(self.dir, "traced-report.json")
        argv = [sys.executable, os.path.join(HERE, "tracer.py"), "--model", self.model_path,
                "--log", self.log_paths[0], "--out", out,
                "--spans", os.path.join(self.dir, "raw-spans.json"), *self.w.cli_args]
        return spawn(argv, out, os.path.join(self.dir, "stderr.txt"), self.hard_deadline)

    def closed_loop(self, seconds: float, parts: int = LOGS_PER_RUN) -> list[Run]:
        """Back-to-back untraced runs, cycling through the first ``parts``
        logs, until each has run and the next run would overrun; each is
        scaled by the reference loop timed just before and after it."""
        runs: list[Run] = []
        t0 = time.perf_counter()
        before = reference_time()
        while True:
            run = self.check_run(len(runs) % parts)
            after = reference_time()
            run.scale = REFERENCE_S / ((before + after) / 2.0)
            before = after
            runs.append(run)
            next_wall = median([r.wall_s for r in runs])
            if (len(runs) >= max(MIN_RUNS, parts)
                    and time.perf_counter() - t0 + next_wall > seconds):
                return runs
            if time.monotonic() + 2 * next_wall > self.hard_deadline:
                return runs

    def import_times(self) -> list[float]:
        code = ("import time; t = time.perf_counter(); import logalign; "
                "print(time.perf_counter() - t)")
        env = dict(os.environ, PYTHONPATH=SRC)
        out = []
        for _ in range(IMPORT_RUNS):
            proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                                  capture_output=True, text=True, timeout=60)
            if proc.returncode != 0:
                raise RuntimeError("import logalign failed: %s" % proc.stderr.strip())
            out.append(float(proc.stdout))
        return out

    # -- correctness gate ---------------------------------------------------

    def check(self, runs: list[Run]) -> tuple[list[str], int, int]:
        """(problems, failed trace attempts, attempted trace attempts)."""
        problems = list(self.input_problems)
        attempted = self.distinct * len(runs)
        failed = 0
        reference: dict[int, dict] = {}  # log part -> its first good report
        for k, run in enumerate(runs):
            report = run.report
            log = self.logs[run.part]
            if run.exit_code != 0 or report is None:
                problems.append("run %d exited %d: %s"
                                % (k, run.exit_code, run.stderr.strip()[-500:]))
                failed += self.distinct
                continue
            rows = report["traces"]
            agg = report["aggregates"]
            if (len(rows) != self.distinct or report["log"]["distinct_traces"] != self.distinct
                    or agg["completed_traces"] + agg["failed_traces"] != self.distinct
                    or report["log"]["total_events"] != log.total_events):
                problems.append("run %d: trace counts do not add up" % k)
                failed += self.distinct
                continue
            bad = set()
            for i, row in enumerate(rows):
                if row["cost"] is None:
                    bad.add(i)
                elif row["fitness"] is None or not 0.0 <= row["fitness"] <= 1.0:
                    problems.append("run %d trace %d: fitness %s" % (k, i, row["fitness"]))
                    bad.add(i)
                elif "--all-optimal" in self.w.cli_args and row.get("n_optimal", 0) < 1:
                    problems.append("run %d trace %d: no optimal alignment" % (k, i))
                    bad.add(i)
            first = reference.setdefault(run.part, report)
            differ = [i for i, (a, b) in enumerate(zip(rows, first["traces"]))
                      if a["cost"] != b["cost"]]
            if differ:
                problems.append("run %d: costs differ from the first run of its log on %d traces"
                                % (k, len(differ)))
                bad.update(differ)
            failed += len(bad)
        for part, report in reference.items():
            wrong = self._oracle_problems(part, report)
            problems += wrong
            failed += len(wrong) * sum(1 for r in runs if r.part == part)
        return problems, min(failed, attempted), attempted

    def _oracle_problems(self, part: int, report) -> list[str]:
        """A seeded sample of traces against the brute-force oracle: equal
        on monolithic routes (a fallback is one), never lower on recomposed
        ones."""
        from logalign.oracle import brute_force_optimal_cost
        from logalign.reachability import build_rg, remove_tau

        if self._rg is None:
            self._rg = remove_tau(build_rg(self.net))
        log = self.logs[part]
        by_text = {log.texts(t): t.labels for t in log.traces}
        rows = report["traces"]
        sample = random.Random("%d/%d" % (self.seed, part)).sample(
            range(len(rows)), min(ORACLE_SAMPLE, len(rows)))
        problems = []
        for i in sorted(sample):
            row = rows[i]
            labels = by_text.get(tuple(row["labels"]))
            if labels is None:
                problems.append("log %d trace %d is not in the generated log" % (part, i))
                continue
            if row["cost"] is None:
                continue  # already counted as a failed trace
            best, _ = brute_force_optimal_cost(labels, self._rg)
            if row["strategy"] == "s-component":
                if row["cost"] < best:
                    problems.append("log %d trace %d: recomposed cost %d below the optimum %d"
                                    % (part, i, row["cost"], best))
            elif row["cost"] != best:
                problems.append("log %d trace %d: %s cost %d, optimum %d"
                                % (part, i, row["strategy"], row["cost"], best))
        return problems


def untraced(bench: Bench, seconds: float) -> dict:
    runs = bench.closed_loop(seconds)
    problems, failed, attempted = bench.check(runs)
    good = [r for r in runs if r.exit_code == 0 and r.report is not None]
    figures = [run_figures(r.wall_s, r.report["timings_ms"]["align"], bench.distinct, r.scale)
               for r in good]
    samples = {
        "wall_s": [f["wall_s"] for f in figures],
        "setup_s": [f["setup_s"] for f in figures],
        "align_traces_per_s": [f["align_traces_per_s"] for f in figures],
        "peak_rss_mb": [r.rss_mb for r in good],
    }
    first = {}  # log part -> its first good report; later runs repeat its costs
    for r in good:
        first.setdefault(r.part, r.report)
    cost = cost_per_trace((rep["aggregates"]["raw_fitness_cost"], rep["log"]["total_traces"])
                          for rep in first.values())
    units = load_units("end_to_end")
    print("%s seed %d: %d untraced runs over %d logs, first log %s"
          % (bench.w.name, bench.seed, len(runs), LOGS_PER_RUN, json.dumps(bench.shape)))
    for name, values in samples.items():
        q1, med, q3 = quartiles(values)
        print("  %-20s %12.6g %-9s q1 %.6g  q3 %.6g  n %d"
              % (name, med, units[name], q1, q3, len(values)))
    print("  %-20s %12.6g %-9s over %d logs" % ("cost_per_trace", cost, units["cost_per_trace"],
                                              len(first)))
    print("  %-20s %12.6g %-9s host seconds, before scaling by %.4g"
          % ("raw wall_s", median([r.wall_s for r in good]), "s",
             median([r.scale for r in good])))
    print("  %-20s %12.6g %-9s (reported, not bounded)"
          % ("raw_fitness_cost", median([r.report["aggregates"]["raw_fitness_cost"]
                                         for r in good]), "events"))
    print("  %-20s %12.6g %-9s %d of %d trace attempts"
          % ("failed_trace_ratio", ratio(failed, attempted), "ratio", failed, attempted))
    for p in problems:
        print("  CHECK FAILED: %s" % p)
    metrics = {k: {"value": median(v), "unit": units[k]} for k, v in samples.items()}
    metrics["cost_per_trace"] = {"value": cost, "unit": units["cost_per_trace"]}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def traced(bench: Bench, seconds: float) -> dict:
    base = bench.closed_loop(seconds / 2.0, parts=1)  # the traced run's log
    import_s = bench.import_times()
    before = reference_time()
    run = bench.traced_run()
    run.scale = REFERENCE_S / ((before + reference_time()) / 2.0)
    problems, failed, attempted = bench.check(base + [run])
    dump = {"workload": bench.w.name, "seed": bench.seed, "import_s": import_s,
            "wall_traced_s": run.wall_s * run.scale,
            "wall_untraced_s": median([r.wall_s * r.scale for r in base])}
    raw_path = os.path.join(bench.dir, "raw-spans.json")
    if run.exit_code == 0 and run.report is not None and os.path.exists(raw_path):
        with open(raw_path) as fh:
            dump.update(json.load(fh))
        os.remove(raw_path)
    else:  # the failure is among the problems; the table reads all zeros
        dump.update(spans=[], leaf={}, bindings={}, skipped=[])
    dump["summary"] = report_summary(run.report, bench.distinct)
    with open(os.path.join(bench.dir, "spans.json"), "w") as fh:
        json.dump(dump, fh)
    values = layer_metrics(dump)
    units = load_units("per_layer")
    print("%s seed %d: traced run %.3f s, untraced median %.3f s over %d runs "
          "(reference seconds)" % (bench.w.name, bench.seed, dump["wall_traced_s"],
                                   dump["wall_untraced_s"], len(base)))
    print(format_table(values, units))
    if dump["skipped"]:
        print("  skipped targets (gone from the package): %s" % ", ".join(dump["skipped"]))
    for p in problems:
        print("  CHECK FAILED: %s" % p)
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one workload; all of them, untraced and traced, if omitted")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    started = time.monotonic()
    try:  # children inherit this, so the reference loop runs on their core
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    if not os.path.isfile(os.path.join(SRC, "logalign", "__init__.py")):
        print("error: no logalign package under %s" % SRC, file=sys.stderr)
        return 2
    import selftest

    if not selftest.passes():
        print("error: the benchmark's self-test fails", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import workloads

    seed = workloads.DEFAULT_SEED if args.seed is None else args.seed
    names = list(workloads.WORKLOADS) if args.workload is None else [args.workload]
    modes = [args.trace] if args.workload is not None else [0, 1]
    for name in names:
        if name not in workloads.WORKLOADS:
            print("error: unknown workload %r" % name, file=sys.stderr)
            return 2

    results = {}
    for name in names:
        for mode in modes:
            # each run gets its own time limit, so one command of many
            # workloads is bounded per run, not overall
            hard_deadline = (started if len(names) == 1 and len(modes) == 1
                             else time.monotonic()) + RUN_LIMIT_S
            bench = Bench(name, seed, hard_deadline)
            results[(name, mode)] = (traced if mode else untraced)(bench, args.seconds)

    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {"%s.%s" % (name, k): v for (name, _), r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
