#!/usr/bin/env python3
"""Fast self-test of the benchmark at toy sizes (about 20 s).

    python3 perfbench/selftest.py

It runs every workload shape on toy configs (``value 3,2``, ``coord 2,3``,
a few hundred sampler steps) and checks that every metric BENCHMARK.json
names is emitted, that span self times are non-negative and add up to the
root span, and that a tampered reference digest or a nonzero exit code is
counted as a failed operation.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import sys
import unittest

import run
from tracer import Tracer
from workloads import TOY_WORKLOADS, Export, Verify, Workload, load_reference

SECONDS = 0.5


def quiet_run(w: Workload, traced: bool, reference: dict) -> dict:
    with contextlib.redirect_stdout(io.StringIO()):
        result, _ = run.run_workload(w, seed=7, seconds=SECONDS, traced=traced, reference=reference)
    return result


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls) -> None:
        with open(run.ROOT / "BENCHMARK.json") as fh:
            cls.spec = json.load(fh)
        cls.reference = load_reference()

    def test_workload_names_match(self) -> None:
        self.assertEqual([w["name"] for w in self.spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(set(TOY_WORKLOADS), set(run.WORKLOADS))

    def test_every_metric_is_emitted(self) -> None:
        for mode, traced, units in (
            ("end_to_end", False, run.END_TO_END),
            ("per_layer", True, run.PER_LAYER),
        ):
            declared = {m["name"]: m["unit"] for m in self.spec[mode]}
            self.assertEqual(declared, units)
            for name, w in TOY_WORKLOADS.items():
                with self.subTest(mode=mode, workload=name):
                    result = quiet_run(w, traced, self.reference)
                    self.assertTrue(result["correct"], result)
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(got, declared)
                    if not traced:
                        for metric in run.END_TO_END:
                            self.assertGreater(result["metrics"][metric]["value"], 0)

    def test_self_times_add_up_to_root(self) -> None:
        d = run.fresh_dir(run.WORK / "selftest")
        report_path = d / "trace.json"
        cmd = TOY_WORKLOADS["exact"].commands[0]
        code, _, _ = run.run_child(
            [str(run.BENCH_DIR / "probe.py"), "trace", str(report_path), *cmd.argv(d, 0)],
            d / "stdout.txt", run.Clock(),
        )
        self.assertEqual(code, 0)
        with open(report_path) as fh:
            report = json.load(fh)
        self.assertEqual(report["exit"], 0)
        spans = report["spans"]
        tracer = Tracer()
        tracer.names = [s["name"] for s in spans]
        tracer.starts = [s["start"] for s in spans]
        tracer.ends = [s["end"] for s in spans]
        tracer.parents = [s["parent"] for s in spans]
        own = tracer.self_times()
        roots = [i for i, s in enumerate(spans) if s["parent"] < 0]
        self.assertEqual([spans[i]["name"] for i in roots], ["root"])
        root = spans[roots[0]]
        self.assertGreater(len(spans), 10)
        self.assertGreaterEqual(min(own), -1e-9)
        self.assertAlmostEqual(sum(own), root["end"] - root["start"], delta=1e-6)
        for s in spans[1:]:
            parent = spans[s["parent"]]
            self.assertLessEqual(parent["start"], s["start"])
            self.assertLessEqual(s["end"], parent["end"])
        shutil.rmtree(d)

    def test_tampered_digest_is_a_failure(self) -> None:
        w = TOY_WORKLOADS["exact"]
        export = next(cmd for cmd in w.commands if isinstance(cmd, Export))
        reference = copy.deepcopy(self.reference)
        digests = reference[export.key]
        digests["Q.json"] = "0" * 64
        result = quiet_run(w, False, reference)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertLess(result["failed"], result["attempted"])  # set-up still passes

    def test_nonzero_exit_is_a_failure(self) -> None:
        # k^n = 2^99 exceeds the state cap: verify prints FAIL build and exits 1
        w = Workload("exit-code", (Verify("coord", 2, 99),), (("coord", 2, 3),))
        result = quiet_run(w, False, self.reference)
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertGreaterEqual(result["attempted"] - result["failed"], run.SETUP_REPS)  # set-ups pass


if __name__ == "__main__":
    sys.exit(unittest.main())
