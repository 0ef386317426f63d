import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
SRC = str(Path(__file__).parent.parent / "src")


def run_cli(*args, cwd=None):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-m", "logalign.cli", *args],
                          capture_output=True, text=True, env=env, cwd=cwd)


def check_args(tmp_path, *extra):
    out = tmp_path / "report.json"
    return ["check", "--log", str(DATA / "loan.xes"), "--model", str(DATA / "loan.pnml"),
            "--out", str(out), *extra], out


def test_check_matches_golden_report(tmp_path):
    args, out = check_args(tmp_path, "--strategy", "auto", "--emit-alignments")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    report.pop("timings_ms")
    golden = json.loads((DATA / "loan_report.json").read_text())
    assert report == golden


def test_check_repeated_runs_give_identical_output(tmp_path):
    reports = []
    for _ in range(2):
        args, out = check_args(tmp_path, "--strategy", "auto", "--emit-alignments")
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        report = json.loads(out.read_text())
        report.pop("timings_ms")
        reports.append(json.dumps(report, sort_keys=True))
    assert reports[0] == reports[1]


def test_check_scomponent_strategy_never_beats_monolithic(tmp_path):
    by_strategy = {}
    for strategy in ("monolithic", "scomponent"):
        args, out = check_args(tmp_path, "--strategy", strategy)
        proc = run_cli(*args)
        assert proc.returncode == 0, proc.stderr
        by_strategy[strategy] = json.loads(out.read_text())
    mono = {r["trace_id"]: r["cost"] for r in by_strategy["monolithic"]["traces"]}
    scomp = {r["trace_id"]: r["cost"] for r in by_strategy["scomponent"]["traces"]}
    assert set(mono) == set(scomp)
    for tid in mono:
        assert scomp[tid] >= mono[tid]
    assert by_strategy["scomponent"]["strategy"]["chosen"] == "s-component"


def test_check_all_optimal_counts(tmp_path):
    args, out = check_args(tmp_path, "--strategy", "monolithic", "--all-optimal")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    counts = {tuple(r["labels"]): r["n_optimal"] for r in report["traces"]}
    assert counts[tuple("BDCEG")] == 4


def test_check_all_optimal_matches_golden_report(tmp_path):
    args, out = check_args(tmp_path, "--strategy", "monolithic", "--all-optimal",
                           "--emit-alignments")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    report.pop("timings_ms")
    assert report == json.loads((DATA / "loan_allopt_report.json").read_text())


def test_check_scomponent_matches_golden_report(tmp_path):
    # pins the extended reduction through component_rg_sizes and the
    # recomposed moves' tau trails
    args, out = check_args(tmp_path, "--strategy", "scomponent", "--emit-alignments")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    report.pop("timings_ms")
    assert report == json.loads((DATA / "loan_scomponent_report.json").read_text())


def test_all_optimal_on_a_long_trace(tmp_path):
    text_log = tmp_path / "long.txt"
    text_log.write_text(",".join(["A"] * 600) + "\n")
    out = tmp_path / "r.json"
    proc = run_cli("check", "--strategy", "monolithic", "--all-optimal", "--emit-alignments",
                   "--log", str(text_log), "--model", str(DATA / "loan.pnml"), "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (trace,) = json.loads(out.read_text())["traces"]
    assert trace["n_optimal"] >= 1
    assert trace["length"] == 600


def test_report_text_is_the_json_dumps_text(tmp_path):
    # the report is written a few thousand encoder pieces at a time: the
    # stdout and the --out text of a run, and a report of many batches, read
    # as json.dumps writes them
    from logalign.cli import _write_report

    args, out = check_args(tmp_path, "--emit-alignments")
    assert run_cli(*args).returncode == 0
    proc = run_cli("check", "--log", str(DATA / "loan.xes"), "--model", str(DATA / "loan.pnml"),
                   "--emit-alignments")
    assert proc.returncode == 0, proc.stderr
    for text in (out.read_text(), proc.stdout):
        assert text == json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"
    report = {"traces": [{"id": "t%d" % i, "cost": i / 7, "moves": [["A", None, i]] * 3}
                         for i in range(800)], "error": None}
    buf = io.StringIO()
    _write_report(report, buf)
    assert buf.getvalue() == json.dumps(report, indent=2, sort_keys=True) + "\n"


def test_check_csv_output(tmp_path):
    csv_path = tmp_path / "rows.csv"
    args, _ = check_args(tmp_path, "--csv", str(csv_path))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == "trace_id,frequency,cost,fitness,strategy,conflict"
    assert len(lines) == 5
    assert lines[1].startswith("0,1,2,0.833333,monolithic,")


def test_check_text_log_fallback(tmp_path):
    text_log = tmp_path / "log.txt"
    text_log.write_text("B,D,C,E,G\nB,D,C,E,G\n")
    out = tmp_path / "r.json"
    proc = run_cli("check", "--log", str(text_log), "--model", str(DATA / "loan.pnml"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["log"]["distinct_traces"] == 1
    assert report["log"]["total_traces"] == 2
    assert report["traces"][0]["cost"] == 1


def test_check_bom_prefixed_xes_matches_golden_report(tmp_path):
    log = tmp_path / "loan.xes"
    log.write_bytes(b"\xef\xbb\xbf" + (DATA / "loan.xes").read_bytes())
    out = tmp_path / "r.json"
    proc = run_cli("check", "--log", str(log), "--model", str(DATA / "loan.pnml"),
                   "--strategy", "auto", "--emit-alignments", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    report.pop("timings_ms")
    assert report == json.loads((DATA / "loan_report.json").read_text())


def test_check_bom_prefixed_text_log(tmp_path):
    text_log = tmp_path / "log.txt"
    text_log.write_bytes("\ufeffB,D,C,E,G\n".encode("utf-8"))
    out = tmp_path / "r.json"
    proc = run_cli("check", "--log", str(text_log), "--model", str(DATA / "loan.pnml"),
                   "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    (row,) = json.loads(out.read_text())["traces"]
    assert row["labels"] == list("BDCEG")
    assert row["cost"] == 1


def test_exit_code_on_a_log_that_is_not_utf8(tmp_path):
    text_log = tmp_path / "log.txt"
    text_log.write_bytes(b"\xff\xfeB\x00,\x00D\x00\n\x00")
    proc = run_cli("check", "--log", str(text_log), "--model", str(DATA / "loan.pnml"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_exit_code_on_a_repeated_or_weighted_pnml_arc(tmp_path):
    pnml = (DATA / "loan.pnml").read_text()
    arc = '<arc id="a0" source="start" target="t0"/>'
    assert arc in pnml
    for message, replacement in (("given twice", arc + arc.replace("a0", "a0b")),
                                 ("weight 2", arc.replace("/>", "><inscription><text>2</text>"
                                                                "</inscription></arc>"))):
        model = tmp_path / "model.pnml"
        model.write_text(pnml.replace(arc, replacement))
        proc = run_cli("check", "--log", str(DATA / "loan.xes"), "--model", str(model))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert "Traceback" not in proc.stderr


def test_exit_code_on_a_repeated_pnml_id(tmp_path):
    pnml = (DATA / "loan.pnml").read_text()
    transition = '<transition id="tA"><name><text>A</text></name></transition>'
    assert transition in pnml
    model = tmp_path / "model.pnml"
    model.write_text(pnml.replace(transition, transition + transition.replace(">A<", ">Z<")))
    proc = run_cli("check", "--log", str(DATA / "loan.xes"), "--model", str(model))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and "id tA is given twice" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_code_on_an_initial_marking_above_one(tmp_path):
    pnml = (DATA / "loan.pnml").read_text()
    marking = "<initialMarking><text>1</text></initialMarking>"
    assert marking in pnml
    for tokens in ("2", "two"):
        model = tmp_path / "model.pnml"
        model.write_text(pnml.replace(marking, marking.replace(">1<", ">%s<" % tokens)))
        proc = run_cli("check", "--log", str(DATA / "loan.xes"), "--model", str(model))
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("error: ") and "initial marking" in proc.stderr
        assert "Traceback" not in proc.stderr


def test_impossible_limits_are_rejected(tmp_path):
    for flag, value in (("--timeout-ms", "-1"), ("--global-timeout-ms", "-1"),
                        ("--state-cap", "0"), ("--state-cap", "-1")):
        args, out = check_args(tmp_path, flag, value)
        proc = run_cli(*args)
        assert proc.returncode == 2, (flag, value)
        assert "argument %s: %s is below the minimum" % (flag, value) in proc.stderr
        assert not out.exists()


def test_check_dot_dir(tmp_path):
    dots = tmp_path / "dots"
    args, _ = check_args(tmp_path, "--strategy", "scomponent", "--dot-dir", str(dots))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    names = sorted(p.name for p in dots.iterdir())
    assert "net.dot" in names and "rg.dot" in names and "dafsa.dot" in names
    assert "component_0.dot" in names


def test_check_dot_dir_matches_golden_graphs(tmp_path):
    # the dot files read every built arc and trail of the monolithic graph
    # and of each component graph
    dots = tmp_path / "dots"
    args, _ = check_args(tmp_path, "--strategy", "scomponent", "--dot-dir", str(dots))
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    golden = DATA / "loan_scomponent_dot"
    names = sorted(p.name for p in golden.iterdir())
    assert names == ["component_%d.dot" % k for k in range(4)] + ["rg.dot"]
    for name in names:
        assert (dots / name).read_text() == (golden / name).read_text(), name


def test_dot_files_quote_labels_and_names(tmp_path):
    # a label, a place name and a silent transition's name (in a component
    # graph's trail) holding double quotes and backslashes
    model = tmp_path / "quotes.pnml"
    write_pnml(model, ["i", "p&quot;1\\", "p2", "o"],
               [("tA", 'say "hi" \\ok', ["i"], ['p&quot;1\\']),
                ('t&quot;\\x', None, ['p&quot;1\\'], ["p2"]),
                ("tB", "B", ["p2"], ["o"])])
    log = tmp_path / "log.txt"
    log.write_text('say "hi" \\ok,B\n')
    dots = tmp_path / "dots"
    proc = run_cli("check", "--log", str(log), "--model", str(model), "--strategy", "scomponent",
                   "--dot-dir", str(dots), "--out", str(tmp_path / "report.json"))
    assert proc.returncode == 0, proc.stderr
    quoted = re.compile(r'"((?:[^"\\]|\\.)*)"')
    texts = set()
    for name in ("net.dot", "rg.dot", "dafsa.dot", "component_0.dot"):
        for line in (dots / name).read_text().splitlines():
            # every quote and backslash sits inside a well-formed quoted string
            assert '"' not in quoted.sub("", line) and "\\" not in quoted.sub("", line), line
            texts.update(re.sub(r"\\(.)", r"\1", q) for q in quoted.findall(line))
    assert {'say "hi" \\ok', 'p"1\\', '[p"1\\]', 'B (t"\\x)'} <= texts


@pytest.mark.parametrize("flag", ["--out", "--csv", "--dot-dir"])
def test_exit_code_on_an_output_path_that_cannot_be_written(tmp_path, flag):
    afile = tmp_path / "afile"
    afile.write_text("")
    path = afile / "out"  # below a regular file
    proc = run_cli("check", "--log", str(DATA / "loan.xes"), "--model", str(DATA / "loan.pnml"),
                   flag, str(path))
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: ") and str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_code_on_bad_model(tmp_path):
    bad = tmp_path / "bad.pnml"
    bad.write_text("<pnml><net>")
    proc = run_cli("check", "--log", str(DATA / "loan.xes"), "--model", str(bad))
    assert proc.returncode == 2


def write_pnml(path, places, transitions):
    """PNML file for a net given as place ids and (id, label or None, pre, post)."""
    rows = ['<pnml><net id="n">']
    rows += ['<place id="%s"/>' % p for p in places]
    arcs = []
    for tid, label, pre, post in transitions:
        name = "" if label is None else "<name><text>%s</text></name>" % label
        rows.append('<transition id="%s">%s</transition>' % (tid, name))
        arcs += [(p, tid) for p in pre] + [(tid, p) for p in post]
    rows += ['<arc id="a%d" source="%s" target="%s"/>' % (k, src, tgt)
             for k, (src, tgt) in enumerate(arcs)]
    rows.append("</net></pnml>")
    path.write_text("\n".join(rows))


def assert_input_error_on_every_strategy(tmp_path, model, message):
    log = tmp_path / "log.txt"
    log.write_text("A,B,C,D\n")
    for strategy in ("auto", "monolithic", "scomponent"):
        proc = run_cli("check", "--log", str(log), "--model", str(model),
                       "--strategy", strategy)
        assert proc.returncode == 2, (strategy, proc.stderr)
        assert proc.stderr.startswith("error: ") and message in proc.stderr
        assert len(proc.stderr.splitlines()) == 1 and "Traceback" not in proc.stderr


def test_exit_code_on_model_that_is_not_1_bounded(tmp_path):
    # both branches of the split write p3, so the second one stacks a token
    model = tmp_path / "unbounded.pnml"
    write_pnml(model, ["i", "p1", "p2", "p3", "o"],
               [("tA", "A", ["i"], ["p1", "p2"]),
                ("tB", "B", ["p1"], ["p3"]),
                ("tC", "C", ["p2"], ["p3"]),
                ("tD", "D", ["p3"], ["o"])])
    assert_input_error_on_every_strategy(tmp_path, model, "exceeds one token")


def test_exit_code_on_tau_into_a_dead_end(tmp_path):
    # the silent choice into p2 leaves a marking nothing can leave
    model = tmp_path / "dead_end.pnml"
    write_pnml(model, ["i", "p1", "p2", "p3", "o"],
               [("tA", "A", ["i"], ["p1"]),
                ("tB", "B", ["p1"], ["p3"]),
                ("tau", None, ["p1"], ["p2"]),
                ("tC", "C", ["p2", "p3"], ["o"])])
    assert_input_error_on_every_strategy(tmp_path, model, "no visible continuation")


def test_exit_code_on_an_unreachable_final_marking(tmp_path):
    # x is still marked whenever f is, so the final marking [f] is never reached
    model = tmp_path / "no_final.pnml"
    write_pnml(model, ["s", "a", "f", "b", "c", "x"],
               [("t1", "A", ["s"], ["a", "x"]),
                ("t2", "B", ["a"], ["f"]),
                ("t3", "C", ["b"], ["a"]),
                ("t4", "D", ["b"], ["c"]),
                ("t5", "E", ["c", "x"], ["b"])])
    assert_input_error_on_every_strategy(
        tmp_path, model, "no final marking reachable from the initial marking")


def test_exit_code_on_state_cap(tmp_path):
    args, _ = check_args(tmp_path, "--strategy", "monolithic", "--state-cap", "5")
    proc = run_cli(*args)
    assert proc.returncode == 4


def test_scomponent_survives_state_cap(tmp_path):
    # the component route stays usable when the monolithic graph is capped
    args, out = check_args(tmp_path, "--strategy", "auto", "--state-cap", "17")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["strategy"]["chosen"] == "s-component"
    assert all(r["cost"] is not None for r in report["traces"])


def test_global_timeout_exit_code(tmp_path):
    args, out = check_args(tmp_path, "--global-timeout-ms", "0")
    proc = run_cli(*args)
    assert proc.returncode == 3
    report = json.loads(out.read_text())
    assert any(r["error"] == "global timeout" for r in report["traces"])


def test_zero_per_trace_timeout_fails_every_trace(tmp_path):
    args, out = check_args(tmp_path, "--strategy", "monolithic", "--timeout-ms", "0")
    proc = run_cli(*args)
    assert proc.returncode == 0, proc.stderr
    rows = json.loads(out.read_text())["traces"]
    assert len(rows) == 4
    for row in rows:
        assert row["cost"] is None and "deadline" in row["error"], row


def test_all_optimal_global_timeout_exit_code(tmp_path):
    args, out = check_args(tmp_path, "--strategy", "monolithic", "--all-optimal",
                           "--global-timeout-ms", "0")
    proc = run_cli(*args)
    assert proc.returncode == 3
    report = json.loads(out.read_text())
    assert report["traces"]
    for row in report["traces"]:
        assert row["cost"] is None
        assert row["error"] == "global timeout"
        assert row["n_optimal"] == 0


def test_import_loads_neither_numpy_nor_a_thread_pool_nor_dataclasses():
    code = ("import sys, logalign, logalign.cli; "
            "print(sorted(m for m in ('numpy', 'concurrent.futures', 'dataclasses', 'inspect')"
            " if m in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=SRC))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_fitness_formula():
    from logalign.report import fitness_of

    assert fitness_of(0, 5, 6) == 1.0
    assert fitness_of(1, 5, 6) == 1.0 - 1.0 / 11.0
    assert fitness_of(100, 5, 6) == 0.0  # clamped
    assert fitness_of(0, 0, 0) == 1.0
    assert fitness_of(3, 4, None) is None
    # fitness is 1 exactly when the cost is 0
    assert all(fitness_of(c, 5, 6) < 1.0 for c in (1, 2, 3))


def test_oracle_subcommand():
    proc = run_cli("oracle", "--log", str(DATA / "loan.xes"),
                   "--model", str(DATA / "loan.pnml"))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    costs = {line.split("\t")[2]: int(line.split("\t")[1]) for line in lines}
    assert costs["B,D,C,E,G"] == 1
    assert costs["C,A,B,E,H,I,E,F,G"] == 3


def test_oracle_reports_a_trace_above_its_guard_and_goes_on(tmp_path):
    # twelve parallel tasks: 4,096 tau-free markings, so a 252-event trace
    # is above the oracle's guard of 10**6 product states
    tasks = ["T%d" % k for k in range(12)]
    model = tmp_path / "parallel.pnml"
    write_pnml(model, ["i", "o"] + ["a%d" % k for k in range(12)] + ["b%d" % k for k in range(12)],
               [("split", None, ["i"], ["a%d" % k for k in range(12)]),
                ("join", None, ["b%d" % k for k in range(12)], ["o"])]
               + [("t%d" % k, tasks[k], ["a%d" % k], ["b%d" % k]) for k in range(12)])
    log = tmp_path / "log.txt"
    log.write_text("\n".join([",".join(tasks), ",".join(tasks * 21), ",".join(tasks[1:])]) + "\n")
    proc = run_cli("oracle", "--log", str(log), "--model", str(model))
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == ["error: trace 1: instance above oracle size guard"]
    rows = [line.split("\t") for line in proc.stdout.splitlines()]
    assert [row[:2] for row in rows] == [["0", "0"], ["1", "-"], ["2", "1"]]
    assert rows[1][2] == ",".join(tasks * 21)
