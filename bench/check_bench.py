"""Tests of the benchmark itself (stdlib unittest, about a minute).

    python3 bench/check_bench.py

A smoke pass of every workload, a traced pass, the gate failing when a
recorded expected value is perturbed, and the refusal to run without the
library sources.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


def in_process(*args: str) -> tuple[int, dict]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(list(args))
    return code, json.loads(out.getvalue().strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def test_every_workload_one_pass(self):
        names = {m["name"] for m in SPEC["end_to_end"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"]):
                proc = bench("--workload", w["name"], "--seed", "3", "--seconds", "0", "--trace", "0")
                self.assertEqual(proc.returncode, 0, proc.stderr)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), names)
                for m in result["metrics"].values():
                    self.assertGreater(m["value"], 0)

    def test_traced_pass_reports_every_layer_metric(self):
        proc = bench("--workload", "pruned", "--seed", "3", "--seconds", "0", "--trace", "1")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), {m["name"] for m in SPEC["per_layer"]})
        expected = workloads.EXPECTED["pruned"]
        # Every instance once, W(3;3) a second time at two workers.
        nodes = sum(e["nodes_expanded"] for e in expected.values()) + expected["W(3;3)"]["nodes_expanded"]
        self.assertEqual(result["metrics"]["search.nodes_expanded"]["value"], nodes)
        self.assertGreater(result["metrics"]["search.wall_2w_s"]["value"], 0)
        self.assertTrue((BENCH / "out" / "spans-pruned-seed3.tsv").is_file())


class GateTest(unittest.TestCase):
    def setUp(self):
        self.saved = copy.deepcopy(workloads.EXPECTED)
        self.saved_reasons = workloads.MUTATION_REASONS

    def tearDown(self):
        workloads.EXPECTED.clear()
        workloads.EXPECTED.update(self.saved)
        workloads.MUTATION_REASONS = self.saved_reasons

    def test_perturbed_node_count_fails(self):
        workloads.EXPECTED["pruned"]["W(3;3)"]["nodes_expanded"] += 1
        code, result = in_process("--workload", "pruned", "--seed", "1", "--seconds", "0")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)

    def test_perturbed_mutation_reason_fails(self):
        workloads.MUTATION_REASONS = ("element mismatch", "digest mismatch", "digest mismatch")
        code, result = in_process("--workload", "certify", "--seed", "1", "--seconds", "0")
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])

    def test_unperturbed_gate_passes(self):
        code, result = in_process("--workload", "pruned", "--seed", "1", "--seconds", "0")
        self.assertEqual(code, 0)
        self.assertTrue(result["correct"])


class ReferenceScannerTest(unittest.TestCase):
    def test_finds_first_mono_progression(self):
        rows = [(0,), (1,), (0,), (1,), (0,)]
        self.assertEqual(
            workloads.reference_witness(rows, 1, None, ([1], [2]), None, 0, "nonzero"),
            ("monochromatic", 1, 2, (1, 3, 5), 1),
        )

    def test_witness_free_colouring_misses(self):
        rows = [(0,), (0,), (1,), (1,)]
        self.assertIsNone(
            workloads.reference_witness(rows, 1, None, ([1], [2]), None, 0, "nonzero")
        )


class BareCheckoutTest(unittest.TestCase):
    def test_refuses_without_sources(self):
        (BENCH / "out").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare-", dir=BENCH / "out"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("--workload", "pruned", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare)


if __name__ == "__main__":
    unittest.main()
