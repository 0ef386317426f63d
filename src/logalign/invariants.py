"""Minimal place invariants and S-component decomposition.

A place invariant is a non-negative integer row vector J with J*N = 0 for
the incidence matrix N; its token-weighted sum is constant over reachable
markings.  The minimal invariants of a sound free-choice workflow net are
0/1 vectors whose supports induce concurrency-free sub-workflow-nets that
jointly cover the net.  Alignment work can then be divided along these
components.

The invariant solver runs the classic non-negative annihilator tableau in
exact integer arithmetic: one elimination round per transition column,
combining rows of opposite sign, normalizing by gcd, and finally keeping
only support-minimal rows.  Each row carries its annotation's support as a
place mask: positive multiples of non-negative annotations cannot cancel,
so a combined row's support is the union of its two parents'.
"""

from __future__ import annotations

from math import gcd
from typing import NamedTuple

from .errors import DecompositionError
from .logs import TAU
from .petri import SystemNet, validate


class PlaceInvariant(NamedTuple):
    weights: tuple[int, ...]

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(p for p, w in enumerate(self.weights) if w)


def minimal_place_invariants(net: SystemNet) -> list[PlaceInvariant]:
    """All minimal semi-positive solutions of J*N = 0, support-ordered."""
    nplaces = len(net.places)
    ntrans = len(net.transitions)
    # rows of [N | I]: effect vector per place plus its unit annotation
    rows: list[tuple[list[int], list[int], int]] = []
    for p in range(nplaces):
        unit = [0] * nplaces
        unit[p] = 1
        effect = [(net.post[t] >> p & 1) - (net.pre[t] >> p & 1) for t in range(ntrans)]
        rows.append((effect, unit, 1 << p))
    for t in range(ntrans):
        keep = [r for r in rows if r[0][t] == 0]
        pos = [r for r in rows if r[0][t] > 0]
        neg = [r for r in rows if r[0][t] < 0]
        for eff_p, ann_p, sup_p in pos:
            for eff_n, ann_n, sup_n in neg:
                cp, cn = -eff_n[t], eff_p[t]
                eff = [cp * a + cn * b for a, b in zip(eff_p, eff_n)]
                ann = [cp * a + cn * b for a, b in zip(ann_p, ann_n)]
                g = 0
                for v in eff + ann:
                    g = gcd(g, v)
                if g > 1:
                    eff = [v // g for v in eff]
                    ann = [v // g for v in ann]
                keep.append((eff, ann, sup_p | sup_n))
        rows = _drop_support_dominated(keep)
    result = {}
    for eff, ann, _ in rows:
        if any(eff):
            continue
        result[tuple(p for p, w in enumerate(ann) if w)] = PlaceInvariant(tuple(ann))
    inv = [result[s] for s in sorted(result)]
    return inv


def _drop_support_dominated(rows):
    """Remove rows whose support mask contains a kept row's; minimal
    semiflows are support-minimal.  Rows are visited by support size, ties
    in row order, so a row's dominators are kept first and of two rows with
    an equal support (identical rows among them) the first stays; the kept
    rows come back in their original order."""
    kept_supports = []
    kept = []
    for i in sorted(range(len(rows)), key=lambda i: rows[i][2].bit_count()):
        sup = rows[i][2]
        if not any(k & sup == k for k in kept_supports):
            kept_supports.append(sup)
            kept.append(i)
    return [rows[i] for i in sorted(kept)]


class SComponent(NamedTuple):
    index: int
    net: SystemNet  # concurrency-free sub-workflow-net
    place_ids: tuple[int, ...]  # indices into the parent net's places
    transition_ids: tuple[int, ...]  # indices into the parent net's transitions
    alphabet: frozenset[int]  # visible label ids of the component


class SComponentDecomposition(NamedTuple):
    net: SystemNet
    invariants: tuple[PlaceInvariant, ...]
    components: tuple[SComponent, ...]
    place_cover: dict
    transition_cover: dict


def decompose(net: SystemNet) -> SComponentDecomposition:
    """One concurrency-free component per minimal invariant, cover-checked."""
    report = validate(net)
    if not report.decomposable:
        raise DecompositionError("net is not a uniquely-labelled free-choice workflow net: %s"
                                 % "; ".join(report.problems))
    invariants = minimal_place_invariants(net)
    if not invariants:
        raise DecompositionError("no place invariants found")
    source = net.m0.bit_length() - 1
    (final_marking,) = net.finals
    sink = final_marking.bit_length() - 1

    components = []
    place_cover: dict[int, list[int]] = {p: [] for p in range(len(net.places))}
    transition_cover: dict[int, list[int]] = {t: [] for t in range(len(net.transitions))}
    for idx, inv in enumerate(invariants):
        if any(w not in (0, 1) for w in inv.weights):
            raise DecompositionError("invariant %d is not a 0/1 vector" % idx)
        place_ids = inv.support
        support = sum(1 << p for p in place_ids)
        if not (support >> source & 1 and support >> sink & 1):
            raise DecompositionError("invariant %d misses the source or sink place" % idx)
        tset = []
        for t in range(len(net.transitions)):
            npre = (net.pre[t] & support).bit_count()
            npost = (net.post[t] & support).bit_count()
            if npre == 1 and npost == 1:
                tset.append(t)
            elif npre or npost:
                # so a transition's components are exactly those its preset
                # meets, and exactly those its postset meets
                raise DecompositionError(
                    "transition %s is unbalanced on invariant %d"
                    % (net.transitions[t].name, idx))
        sub = _subnet(net, place_ids, support, tuple(tset), source, sink)
        sub_report = validate(sub)
        if not sub_report.workflow_ok:
            raise DecompositionError("component %d is not a workflow net: %s"
                                     % (idx, "; ".join(sub_report.problems)))
        alphabet = frozenset(net.transitions[t].label for t in tset) - {TAU}
        components.append(SComponent(idx, sub, place_ids, tuple(tset), alphabet))
        for p in place_ids:
            place_cover[p].append(idx)
        for t in tset:
            transition_cover[t].append(idx)

    if any(not v for v in place_cover.values()) or any(not v for v in transition_cover.values()):
        raise DecompositionError("components do not cover the net")
    return SComponentDecomposition(
        net, tuple(invariants), tuple(components),
        {p: tuple(v) for p, v in place_cover.items()},
        {t: tuple(v) for t, v in transition_cover.items()})


def _subnet(net: SystemNet, place_ids, support, transition_ids, source, sink) -> SystemNet:
    """The component on the places of ``support``, a mask that each of
    ``transition_ids`` meets in exactly one pre- and one post-place."""
    pos = {p: i for i, p in enumerate(place_ids)}
    places = tuple(net.places[p] for p in place_ids)
    pre = []
    post = []
    for t in transition_ids:
        pre.append(1 << pos[(net.pre[t] & support).bit_length() - 1])
        post.append(1 << pos[(net.post[t] & support).bit_length() - 1])
    return SystemNet(places, tuple(net.transitions[t] for t in transition_ids),
                     tuple(pre), tuple(post), 1 << pos[source], frozenset({1 << pos[sink]}), net.table)
