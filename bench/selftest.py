"""Self-test of the benchmark: python3 bench/selftest.py

Runs every workload at a tiny size, traced and untraced, and checks that
each declared metric is emitted with its unit; checks that a corrupted
golden file, a broken reconstruction map and a missing fact-suite instance
each count as failed ops; and checks that BENCHMARK.json declares exactly
the metrics the runner emits.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "fact-suite": {"poset_max": 3, "lattice_max": 3},
    "closure-large": {"requests": 2},
    "golden-cli": {"cases": ["grm__vee", "closure__vee", "partition__chain2"]},
}


class TinyRuns(unittest.TestCase):
    def test_untraced_emits_every_end_to_end_metric(self):
        for workload, tiny in TINY.items():
            with self.subTest(workload=workload):
                report, result = run.measure(workload, 1, 0, False, tiny)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], report["failures"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()}, run.END_TO_END
                )
                self.assertEqual(report["rounds"]["untraced"], run.MIN_ROUNDS)
                self.assertEqual(report["fail_ratio"]["value"], 0.0)

    def test_traced_emits_every_per_layer_metric(self):
        for workload, tiny in TINY.items():
            with self.subTest(workload=workload):
                report, result = run.measure(workload, 1, 0, True, tiny)
                self.assertTrue(result["correct"], report["failures"])
                self.assertEqual(report["absent"], [])
                self.assertEqual(
                    {k: v["unit"] for k, v in result["metrics"].items()}, run.PER_LAYER
                )

    def test_vanished_traced_names_are_absent_not_fatal(self):
        import tracer

        self.assertIsNone(tracer._lookup("enumeration", "no_such_function"))
        self.assertIsNone(tracer._lookup("lattice", "Lattice.no_such_method"))
        self.assertIsNone(tracer._lookup("no_such_module", "corpus"))
        self.assertIsNotNone(tracer._lookup("lattice", "Lattice.from_poset"))
        out = tracer.Tracer().summary(1.0)
        self.assertNotIn("enumeration.corpus.calls", out)
        self.assertNotIn("closure.elements", out)
        self.assertNotIn("germs.grm.hits", out)

    def test_same_seed_same_inputs(self):
        a = workloads.closure_documents(5, 0, 6)
        self.assertEqual(a, workloads.closure_documents(5, 0, 6))
        self.assertNotEqual(a, workloads.closure_documents(6, 0, 6))


class Gates(unittest.TestCase):
    def test_corrupted_golden_output_is_a_failed_op(self):
        cases = TINY["golden-cli"]["cases"]
        with tempfile.TemporaryDirectory() as tmp:
            for name in cases:
                shutil.copy(HERE.parent / workloads.GOLDEN_EXPECTED / f"{name}.txt", tmp)
            with open(Path(tmp) / "closure__vee.txt", "a") as f:
                f.write("corrupted\n")
            report, result = run.measure(
                "golden-cli", 1, 0, False, {"cases": cases, "expected_dir": tmp}
            )
        self.assertFalse(result["correct"])
        self.assertEqual(result["attempted"], len(cases) * run.MIN_ROUNDS)
        self.assertEqual(result["failed"], run.MIN_ROUNDS)
        self.assertTrue(all("closure__vee" in f for f in report["failures"]))
        self.assertGreater(report["fail_ratio"]["value"], 0)

    def test_closure_checks_catch_broken_outputs(self):
        doc = workloads.closure_documents(1, 0, 2)[1]
        out = workloads.closure_request(doc)
        self.assertIsNone(workloads.check_closure_request(out))
        j = list(out["map"])
        j[0], j[-1] = j[-1], j[0]
        self.assertIn("order", workloads.check_closure_request({**out, "map": j}))
        self.assertIn("bijection", workloads.check_closure_request({**out, "map": j[1:]}))
        self.assertIn("|G|", workloads.check_closure_request({**out, "germs": out["germs"][1:]}))

    def test_fact_suite_counts_missing_and_failed_instances(self):
        from germclosure import PredicateReport

        seen = [("a", "i1", True), ("a", "i2", False), ("b", "j1", True)]
        reports = [
            PredicateReport("a", 2, (("i2", "broken"),)),
            PredicateReport("b", 1, ()),
        ]
        attempted, failures = workloads.check_fact_suite(reports, seen, {"a": 2, "b": 3})
        self.assertEqual(attempted, 5)
        self.assertEqual(len(failures), 3)
        advisory = [PredicateReport("a", 2, (("i2", "broken"),), advisory=True),
                    PredicateReport("b", 1, ())]
        self.assertEqual(workloads.check_fact_suite(advisory, seen, {"a": 2, "b": 1}), (3, []))


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_runner(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]}, run.PER_LAYER)


if __name__ == "__main__":
    unittest.main()
