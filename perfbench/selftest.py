"""Self-test of the benchmark's own arithmetic, on synthetic data only.

    python3 perfbench/selftest.py

No workload runs and ``logalign`` is not imported: the checks cover the
tail percentile, self-time subtraction for nested spans, how setup_s and
the ratios are derived, the identity-based wrapper lookup (including a
missing target), and that ``catalog.json``, ``BENCHMARK.json`` and the
code name the same metrics.  ``run.py`` runs this
before every benchmark run and refuses to measure if it fails.
"""

from __future__ import annotations

import io
import json
import sys
import types
import unittest

from layers import BENCHMARK_PATH, layer_metrics, load_catalog
from stats import (cost_per_trace, percentile, quartiles, ratio, run_figures, self_times,
                   tail_percentile)
from tracer import Recorder, Target, install, uninstall


def _span(name, start, end, parent=-1, info=None, leaf_s=0.0, overhead_s=0.0):
    return {"name": name, "start": start, "end": end, "parent": parent, "trace": -1,
            "leaf_s": leaf_s, "overhead_s": overhead_s, "info": info or {}}


class TailPercentile(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # nearest rank of p50 in 25 samples is 13, leaving 12 beyond it;
        # p90 (rank 23) would leave only 2
        self.assertEqual(tail_percentile(range(1, 26)), (50.0, 13, 25))
        self.assertEqual(tail_percentile(range(1, 101)), (90.0, 90, 100))
        self.assertEqual(tail_percentile(range(1, 1001)), (99.0, 990, 1000))
        self.assertEqual(tail_percentile(range(1, 10001)), (99.9, 9990, 10000))
        self.assertEqual(tail_percentile(range(1, 100))[0], 50.0)  # p90 leaves 9

    def test_small_and_empty(self):
        self.assertEqual(tail_percentile([3.0, 1.0, 2.0]), (100.0, 3.0, 3))
        self.assertEqual(tail_percentile([]), (0.0, 0.0, 0))

    def test_percentile_is_nearest_rank(self):
        self.assertEqual(percentile([4, 1, 3, 2], 50), 2)
        self.assertEqual(percentile(range(1, 101), 90), 90)
        self.assertEqual(percentile([], 50), 0.0)

    def test_quartiles_match_statistics(self):
        self.assertEqual(quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), (2.75, 5.5, 8.25))
        self.assertEqual(quartiles([4.0]), (4.0, 4.0, 4.0))


class SelfTimes(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 3.0, parent=0),
            _span("b", 4.0, 6.0, parent=0, leaf_s=0.25),
            _span("b.child", 4.5, 5.0, parent=2),
        ]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.25, 0.5])

    def test_overhead_and_overlap(self):
        # overlapping children are covered once; bookkeeping is not self time
        spans = [_span("root", 0.0, 10.0, overhead_s=0.5),
                 _span("a", 1.0, 4.0, parent=0), _span("b", 3.0, 5.0, parent=0),
                 _span("late", 9.0, 12.0, parent=0)]
        self.assertEqual(self_times(spans)[0], 10.0 - 4.0 - 1.0 - 0.5)


class Derived(unittest.TestCase):
    def test_setup_and_throughput(self):
        f = run_figures(wall_s=2.0, align_ms=500.0, distinct=1000)
        self.assertEqual(f, {"wall_s": 2.0, "setup_s": 1.5, "align_traces_per_s": 2000.0})
        # a host running at half the reference speed: times halve, throughput doubles
        f = run_figures(wall_s=2.0, align_ms=500.0, distinct=1000, scale=0.5)
        self.assertEqual(f, {"wall_s": 1.0, "setup_s": 0.75, "align_traces_per_s": 4000.0})

    def test_cost_per_trace_pools_logs(self):
        # 10 moves over 4 traces and 2 over 4: pooled, not averaged per log
        self.assertEqual(cost_per_trace([(10, 4), (2, 4)]), 1.5)
        self.assertEqual(cost_per_trace([(9, 6), (3, 2)]), 1.5)
        self.assertEqual(cost_per_trace([]), 0.0)

    def test_ratio_without_base(self):
        self.assertEqual(ratio(3, 4), 0.75)
        self.assertEqual(ratio(3, 0), 0.0)

    def _dump(self, spans, leaf=None, **summary):
        base = {"distinct": 4, "rg_size": 100, "component_rg_total": 10,
                "mono_aligned": 0, "fallbacks": 0, "conflicts": 0}
        base.update(summary)
        return {"spans": spans, "leaf": leaf or {}, "skipped": ["x.gone"],
                "summary": base, "import_s": [0.3, 0.1, 0.2],
                "wall_traced_s": 3.0, "wall_untraced_s": 2.0}

    def test_layer_ratios(self):
        spans = [
            _span("recompose.init", 0.0, 1.0, info={"components": 2}),
            _span("recompose.align_trace", 1.0, 2.0),
            _span("align.align_one_optimal", 1.1, 1.2, parent=1,
                  info={"component": True, "cost": 2, "root_h": 1, "pops": 5}),
            _span("recompose.align_trace", 2.0, 3.0),
            _span("align.align_one_optimal", 2.1, 2.5, parent=3,
                  info={"component": False, "cost": 2, "root_h": 2, "pops": 7}),
            _span("reachability.build_rg", 3.0, 4.0, info={"mono": True, "markings": 9}),
            _span("reachability.build_rg", 4.0, 4.5, info={"mono": False, "markings": 3}),
            _span("align.memo_prefix_seeds", 5.0, 5.1, info={"hit": True}),
            _span("align.memo_prefix_seeds", 5.1, 5.2, info={"hit": False}),
        ]
        m = layer_metrics(self._dump(spans, {"heuristic.h": [10, 0.5]},
                                     mono_aligned=1, fallbacks=1, conflicts=1))
        self.assertEqual(m["recompose.lane_cache_hit_ratio"], 1 - 1 / (2 * 2))
        self.assertEqual(m["recompose.fallback_ratio"], 0.25)
        self.assertEqual(m["reachability.mono_rg_use_ratio"], 0.25)
        self.assertEqual(m["reachability.mono_builds"], 1)
        self.assertEqual(m["reachability.markings_built"], 12)
        self.assertEqual(m["heuristic.root_ratio"], 3 / 4)
        self.assertEqual((m["heuristic.h_calls"], m["heuristic.h_s"]), (10, 0.5))
        self.assertEqual(m["align.astar_pops"], 12)
        self.assertEqual(m["align.memo_prefix_hit_ratio"], 0.5)
        self.assertEqual(m["align.memo_suffix_hit_ratio"], 0.0)
        self.assertEqual(m["cli.import_s"], 0.2)
        self.assertEqual(m["trace.overhead_ratio"], 1.5)
        self.assertEqual(m["trace.skipped_targets"], 1)
        self.assertAlmostEqual(m["recompose.align_trace_s"], 0.9 + 0.6)


class WrapperLookup(unittest.TestCase):
    def _modules(self):
        home = types.ModuleType("pkg.home")

        def work(x):
            return x + 1

        class Engine:
            def step(self, x):
                return x * 2

        home.work, home.Engine = work, Engine
        user = types.ModuleType("pkg.user")
        user.work = work  # bound by ``from .home import work``
        user.alias = work  # bound under another name
        other = types.ModuleType("pkg.other")
        other.work = lambda x: x  # same name, different object
        return {"pkg.home": home, "pkg.user": user, "pkg.other": other}

    def test_identity_lookup_and_skip(self):
        modules = self._modules()
        original = modules["pkg.home"].work
        unrelated = modules["pkg.other"].work
        rec = Recorder()
        targets = [Target("pkg.home", "work", "home.work"),
                   Target("pkg.home", "Engine.step", "home.step"),
                   Target("pkg.home", "gone", "home.gone"),
                   Target("pkg.missing", "work", "missing.work")]
        undo, bindings, skipped = install(rec, targets, modules)
        self.assertEqual(bindings["home.work"],
                         ["pkg.home.work", "pkg.user.alias", "pkg.user.work"])
        self.assertIs(modules["pkg.other"].work, unrelated)
        self.assertEqual(skipped, ["home.gone", "missing.work"])
        self.assertEqual(modules["pkg.user"].alias(1), 2)
        self.assertEqual(modules["pkg.home"].Engine().step(3), 6)
        self.assertEqual([s["name"] for s in rec.spans], ["home.work", "home.step"])
        uninstall(undo)
        self.assertIs(modules["pkg.user"].work, original)
        self.assertIs(modules["pkg.user"].alias, original)

    def test_nested_calls_record_parent(self):
        modules = self._modules()
        home = modules["pkg.home"]
        inner = home.work
        home.outer = lambda x: home.work(x) * 10
        rec = Recorder()
        undo, _, _ = install(rec, [Target("pkg.home", "work", "inner"),
                                   Target("pkg.home", "outer", "outer")], modules)
        self.assertEqual(home.outer(1), 20)
        uninstall(undo)
        self.assertIs(home.work, inner)
        outer, inner_span = rec.spans
        self.assertEqual((outer["name"], outer["parent"]), ("outer", -1))
        self.assertEqual((inner_span["name"], inner_span["parent"]), ("inner", 0))
        self.assertLessEqual(outer["start"], inner_span["start"])
        self.assertLessEqual(inner_span["end"], outer["end"])


class Catalog(unittest.TestCase):
    def test_catalog_matches_benchmark_json_and_code(self):
        catalog = load_catalog()
        produced = set(layer_metrics(Derived()._dump([])))
        self.assertEqual(produced, set(catalog["per_layer"]))
        with open(BENCHMARK_PATH) as fh:
            bench = json.load(fh)
        self.assertEqual([w["name"] for w in bench["workloads"]], list(catalog["workloads"]))
        for key in ("end_to_end", "per_layer"):
            self.assertEqual([m["name"] for m in bench[key]], list(catalog[key]))


def passes() -> bool:
    """Run the self-test quietly; print its report to stderr if it fails."""
    stream = io.StringIO()
    suite = unittest.defaultTestLoader.loadTestsFromModule(sys.modules[__name__])
    result = unittest.TextTestRunner(stream=stream, verbosity=0).run(suite)
    if not result.wasSuccessful():
        sys.stderr.write(stream.getvalue())
    return result.wasSuccessful()


if __name__ == "__main__":
    unittest.main()
