"""Self-tests of the benchmark.

    python3 -m unittest discover -s perfbench -t perfbench

Run from the root of a checkout.  They start real workers on a corpus of
a few small problems, so they take a few seconds.
"""

from __future__ import annotations

import copy
import random
import shutil
import sys
import unittest

import corpus
import run
import tracing
import worker

TINY = ("sw-cubic-analyze", "sw-g-ord-2x3", "sw-gen-alt-4x4-t2-x2", "sw-cubic-analyze-qq-text")


def tiny_corpus() -> list[dict]:
    expected = corpus.load_expected()
    bases = {b.id: b for b in corpus.BASES["small-sweep"]}
    rng = random.Random(7)
    return [corpus.problem(bases[i], rng, i, expected[i]) for i in TINY]


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        self.run_dir = run.WORK_DIR / f"selftest-{self.id().rsplit('.', 1)[-1]}"
        self.run_dir.mkdir(parents=True, exist_ok=True)

    def tearDown(self):
        shutil.rmtree(self.run_dir, ignore_errors=True)

    def test_tiny_corpus_runs_end_to_end(self):
        s = run.run_corpus(tiny_corpus(), self.run_dir, seconds=0.5, trace=True)
        self.assertGreaterEqual(s["passes"], 1)
        self.assertEqual(s["failed"], 0, s["failures"])
        self.assertEqual(s["outcomes"]["ok"], s["attempted"])
        self.assertEqual(s["attempted"], len(TINY) * (s["passes"] + 1))
        self.assertEqual(len(s["setup_s"]), run.SETUP_PROBES + 1)
        self.assertGreater(s["layers"]["groebner.buchberger_calls"], 0)
        self.assertGreater(s["layers"]["cli.parser_s"], 0)

    def test_wrong_expected_value_raises_failed_frac(self):
        problems = tiny_corpus()
        wrong = copy.deepcopy(problems[0])
        wrong["expect"]["content"][0]["height"] += 1
        s = run.run_corpus([wrong] + problems[1:], self.run_dir, seconds=0.1, trace=False)
        self.assertEqual(s["outcomes"]["wrong"], s["passes"])
        self.assertEqual(s["failed"], s["passes"])
        self.assertTrue(all(f["id"] == wrong["id"] for f in s["failures"]))

    def test_killed_worker_fails_unfinished_problems(self):
        problems = tiny_corpus()
        events = [{"event": "problem", "traced": False, "id": p["id"], "seconds": 0.01, "outcome": "ok", "detail": ""} for p in problems]
        events.append({"event": "pass", "traced": False, "index": 0, "wall_s": 0.04, "measured_wall_s": 0.04, "peak_rss_mb": 20.0, "problem_s": [[p["base"], 0.01] for p in problems]})
        events.append(events[0])  # the worker was killed after one problem of its second pass
        cut = run.summarize(events, len(problems), finished=False)
        self.assertEqual(cut["failed"], len(problems) - 1)
        self.assertEqual(cut["attempted"], 2 * len(problems))
        self.assertEqual(cut["passes"], 1)

    def test_wrappers_are_removed_after_a_traced_pass(self):
        modules = {name: dict(vars(m)) for name, m in sys.modules.items() if name.startswith("reeskit")}
        from reeskit.groebner import LowerIdealCache

        methods = dict(vars(LowerIdealCache))
        original = sys.modules["reeskit.groebner"].buchberger
        tracer = tracing.Tracer()
        tracer.install()
        try:
            self.assertIsNot(sys.modules["reeskit.groebner"].buchberger, original)
            # Names bound by `from .x import f` are wrapped too.
            self.assertIsNot(sys.modules["reeskit.cli"].parse_poly, modules["reeskit.poly"]["parse_poly"])
            self.assertIsNot(sys.modules["reeskit.groebner"].enumerate_minors, modules["reeskit.matrixalg"]["enumerate_minors"])
            tracer.start_problem("p")
            worker.run_problem(["generic", "--kind", "ordinary", "--m", "2", "--n", "3", "--t", "2"])
        finally:
            tracer.remove()
        self.assertIs(sys.modules["reeskit.groebner"].buchberger, original)
        for name, before in modules.items():
            after = vars(sys.modules[name])
            for attr, value in before.items():
                self.assertIs(after[attr], value, f"{name}.{attr}")
        for attr, value in methods.items():
            self.assertIs(vars(LowerIdealCache)[attr], value, f"LowerIdealCache.{attr}")
        self.assertTrue(tracer.spans)
        self.assertEqual(tracer.layer_metrics()["groebner.buchberger_calls"], sum(1 for s in tracer.spans if s[0] == "groebner.buchberger"))


if __name__ == "__main__":
    unittest.main()
