"""Seeded inputs of the conformance benchmark.

Each workload pairs a fixed workflow net with logs sampled from it.  The
seed drives only the logs: which model runs are sampled and which noise
edits (0 to 2 random deletes, inserts, duplicates or swaps per trace) are
applied.  Sampling continues until a log holds a fixed number of distinct
traces, so every log gives the program about the same amount of work.

The net and log generators are copies of the ones in ``tests/nets.py`` and
``tests/gen.py``, kept here so that edits to the tests cannot move the
benchmark's inputs.  The package has no PNML writer, so one lives here too.
"""

from __future__ import annotations

import os
import random
import string
from dataclasses import dataclass
from xml.sax.saxutils import escape, quoteattr

from logalign.logs import EventLog, LabelTable, make_log, write_xes
from logalign.petri import SystemNet

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "parallel" or "random"
    model_param: int  # task count, or the random net's seed
    distinct: int  # distinct traces in the log
    cli_args: tuple[str, ...]


WORKLOADS = {
    "concurrent": Workload("concurrent", "parallel", 14, 2000, ("--strategy", "auto")),
    "mixed": Workload("mixed", "random", 12, 60, ("--strategy", "auto")),
    "loops": Workload("loops", "random", 11, 500, ("--strategy", "auto")),
    # auto would pick S-components here and ignore --all-optimal
    "allopt": Workload("allopt", "parallel", 10, 600,
                       ("--strategy", "monolithic", "--all-optimal")),
}

RANDOM_NET_MAX_VISIBLE = 30
MAX_TRACE_LEN = 40


# -- nets (copied from tests/nets.py and tests/gen.py) ------------------------


def parallel_tasks_net(labels, table=None):
    """All labels in one parallel block between silent split and join."""
    table = table if table is not None else LabelTable()
    places = ["i"] + ["a%d" % k for k in range(len(labels))] + \
        ["b%d" % k for k in range(len(labels))] + ["o"]
    rows = [("t_split", None, ["i"], ["a%d" % k for k in range(len(labels))])]
    for k, label in enumerate(labels):
        rows.append(("t_%s" % label, label, ["a%d" % k], ["b%d" % k]))
    rows.append(("t_join", None, ["b%d" % k for k in range(len(labels))], ["o"]))
    return SystemNet.build(places, rows, table)


def _label_name(i):
    letters = string.ascii_uppercase
    name = ""
    i += 1
    while i:
        i, r = divmod(i - 1, 26)
        name = letters[r] + name
    return name


class _Builder:
    def __init__(self, rng, max_visible):
        self.rng = rng
        self.max_visible = max_visible
        self.places = []
        self.rows = []
        self.nlabels = 0
        self.ntau = 0

    def place(self):
        name = "q%d" % len(self.places)
        self.places.append(name)
        return name

    def tau(self, ins, outs):
        self.rows.append(("tau%d" % self.ntau, None, ins, outs))
        self.ntau += 1

    def task(self, p_in, p_out):
        label = _label_name(self.nlabels)
        self.nlabels += 1
        self.rows.append(("t_%s" % label, label, [p_in], [p_out]))

    def left(self):
        return self.max_visible - self.nlabels

    def block(self, p_in, p_out, depth, need_visible=False):
        units = self.rng.randint(1, 2 if depth else 3)
        cur = p_in
        made_visible = False
        for k in range(units):
            nxt = p_out if k == units - 1 else self.place()
            force = need_visible and not made_visible and k == units - 1
            made_visible |= self.unit(cur, nxt, depth, force)
            cur = nxt
        return made_visible

    def unit(self, p_in, p_out, depth, need_visible):
        choices = ["task"]
        if self.left() >= 2 and depth < 3:
            choices += ["task", "xor", "and"]
            if not need_visible:
                choices += ["loop", "skip"]
        kind = self.rng.choice(choices)
        if kind == "task" or self.left() < 2:
            self.task(p_in, p_out)
            return True
        if kind == "xor":
            n = self.rng.randint(2, min(3, self.left()))
            for _ in range(n):
                self.block(p_in, p_out, depth + 1, need_visible=True)
            return True
        if kind == "and":
            n = self.rng.randint(2, min(3, self.left()))
            entries = [self.place() for _ in range(n)]
            exits = [self.place() for _ in range(n)]
            self.tau([p_in], entries)
            for e, x in zip(entries, exits):
                self.block(e, x, depth + 1, need_visible=False)
            self.tau(exits, [p_out])
            return False
        if kind == "loop":
            p1, p2 = self.place(), self.place()
            self.tau([p_in], [p1])
            self.block(p1, p2, depth + 1, need_visible=True)
            self.tau([p2], [p_out])
            self.tau([p2], [p1])  # redo
            return True
        # skip: optional block
        self.block(p_in, p_out, depth + 1, need_visible=True)
        self.tau([p_in], [p_out])
        return False


def random_workflow_net(seed, max_visible=12, table=None):
    """Sound, free-choice, uniquely labelled workflow net built by structured
    composition (sequence, choice, parallel, loop, optional skip)."""
    rng = random.Random(seed)
    table = table if table is not None else LabelTable()
    b = _Builder(rng, max_visible)
    b.block("i", "o", 0, need_visible=True)
    return SystemNet.build(["i"] + b.places + ["o"], b.rows, table)


# -- traces (copied from tests/gen.py) ---------------------------------------


def random_model_run(net, rng, max_len=30):
    """Visible labels of a random complete firing sequence."""
    m = net.m0
    labels = []
    steps = 0
    while m not in net.finals and steps < 10 * max_len + 50:
        enabled = [t for t in range(len(net.transitions)) if net.enabled(m, t)]
        if not enabled:
            break
        t = rng.choice(enabled)
        m = net.fire(m, t)
        steps += 1
        if net.transitions[t].label != 0:
            labels.append(net.transitions[t].label)
    return tuple(labels)


def noised_trace(trace, net, rng):
    """Randomly delete, insert, duplicate or swap up to two events."""
    labels = list(trace)
    visible = [t.label for t in net.transitions if t.label != 0]
    for _ in range(rng.randint(0, 2)):
        op = rng.choice(["del", "ins", "dup", "swap"])
        if op == "del" and labels:
            labels.pop(rng.randrange(len(labels)))
        elif op == "ins" and visible:
            labels.insert(rng.randint(0, len(labels)), rng.choice(visible))
        elif op == "dup" and labels:
            k = rng.randrange(len(labels))
            labels.insert(k, labels[k])
        elif op == "swap" and len(labels) > 1:
            k = rng.randrange(len(labels) - 1)
            labels[k], labels[k + 1] = labels[k + 1], labels[k]
    return tuple(labels)


# -- workload assembly -------------------------------------------------------


def build_model(w: Workload) -> SystemNet:
    table = LabelTable()
    if w.model == "parallel":
        return parallel_tasks_net(["T%d" % i for i in range(w.model_param)], table)
    return random_workflow_net(w.model_param, RANDOM_NET_MAX_VISIBLE, table)


def sample_log(w: Workload, net: SystemNet, seed: int, part: int = 0) -> EventLog:
    """Noisy traces sampled until the log holds ``w.distinct`` distinct ones;
    ``part`` numbers the independent logs drawn for one seed."""
    rng = random.Random("%s/%d/%d" % (w.name, seed, part))
    visible = [t.label for t in net.transitions if t.label != 0]
    sequences = []
    seen = set()
    attempts = 0
    while len(seen) < w.distinct:
        attempts += 1
        if attempts > 100 * w.distinct:
            raise RuntimeError("%s: cannot sample %d distinct traces" % (w.name, w.distinct))
        if w.model == "parallel":
            run = visible[:]
            rng.shuffle(run)
        else:
            run = random_model_run(net, rng)
        trace = noised_trace(run, net, rng)[:MAX_TRACE_LEN]
        sequences.append(trace)
        seen.add(trace)
    return make_log(sequences, net.table)


def pnml_text(net: SystemNet) -> str:
    """PNML document that ``logalign.petri.parse_pnml`` reads back as ``net``."""
    out = ['<?xml version="1.0" encoding="UTF-8"?>',
           '<pnml><net id="net" type="http://www.pnml.org/version-2009/grammar/pnmlcoremodel">',
           '<page id="page">']
    for i, place in enumerate(net.places):
        marking = ("<initialMarking><text>1</text></initialMarking>"
                   if net.m0 >> i & 1 else "")
        out.append("<place id=%s>%s</place>" % (quoteattr(place), marking))
    arcs = []
    for t, tr in enumerate(net.transitions):
        tid = quoteattr(tr.name)
        if tr.label == 0:
            out.append("<transition id=%s/>" % tid)
        else:
            out.append("<transition id=%s><name><text>%s</text></name></transition>"
                       % (tid, escape(net.table.text(tr.label))))
        arcs += [(net.places[p], tr.name) for p in net.preset_places(t)]
        arcs += [(tr.name, net.places[p]) for p in net.postset_places(t)]
    for k, (src, tgt) in enumerate(arcs):
        out.append("<arc id=\"a%d\" source=%s target=%s/>" % (k, quoteattr(src), quoteattr(tgt)))
    out += ["</page>", "</net></pnml>"]
    return "\n".join(out) + "\n"


def input_shape(net: SystemNet, log: EventLog) -> dict:
    return {"places": len(net.places), "transitions": len(net.transitions),
            "distinct_traces": len(log.traces), "events": log.total_events}


def check_shape(name: str, shape: dict, catalog: dict, pin_events: bool) -> list[str]:
    """Differences between a generated input and the recorded shape counters.

    The model's size and the distinct-trace count are fixed for every log;
    the event count is pinned only for the first log of the default seed.
    """
    recorded = catalog["workloads"][name]["input_shape"]
    keys = ["places", "transitions", "distinct_traces"] + (["events"] if pin_events else [])
    return ["%s: %s is %s, recorded %s" % (name, k, shape[k], recorded[k])
            for k in keys if shape[k] != recorded[k]]


def write_model(net: SystemNet, path: str):
    with open(path, "w") as fh:
        fh.write(pnml_text(net))


def write_log(log: EventLog, path: str):
    with open(path, "w") as fh:
        fh.write(write_xes(log))
