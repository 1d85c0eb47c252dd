"""Tests of the end-to-end benchmark itself.

Run from the repository root (the first test builds the benchmark):

    python3 -m unittest discover -s perfbench/tests -v

Every run here uses --tiny inputs, so the suite checks behaviour, not
speed. Scratch files go under .bench_build/, which git ignores.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
import unittest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))
SPEC = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = os.path.join(ROOT, ".bench_build", "tests")


def run_bench(workload, seed=1, trace=0, extra=(), cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    if cwd == ROOT:
        cmd += ["--tiny"]
    cmd += list(extra)
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def result_of(proc):
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1])


def outputs_of(proc):
    """The simulated outputs a run printed ("  output key = value")."""
    out = {}
    for line in proc.stdout.splitlines():
        if line.startswith("  output "):
            key, _, value = line[len("  output "):].partition(" = ")
            out[key] = value
    return out


def tree_digest():
    """SHA-256 of every file outside .git and the ignored build trees."""
    digest = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if d not in (".git", ".bench_build", "__pycache__")
                       and not d.startswith("build")]
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                digest[os.path.relpath(path, ROOT)] = \
                    hashlib.sha256(f.read()).hexdigest()
    return digest


class PerfbenchTest(unittest.TestCase):
    def check_metrics(self, proc, expected):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(set(result),
                         {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stdout[-3000:])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        names = {m["name"]: m["unit"] for m in expected}
        self.assertEqual(set(result["metrics"]), set(names))
        for name, metric in result["metrics"].items():
            self.assertEqual(metric["unit"], names[name], name)
            self.assertIsInstance(metric["value"], (int, float), name)
        return result

    def test_untraced_runs_emit_every_end_to_end_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload)
                result = self.check_metrics(proc, SPEC["end_to_end"])
                for name, metric in result["metrics"].items():
                    self.assertGreater(metric["value"], 0, name)

    def test_traced_runs_emit_every_per_layer_metric(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run_bench(workload, trace=1)
                self.check_metrics(proc, SPEC["per_layer"])
                out = os.path.join(ROOT, ".bench_build", "out")
                with open(os.path.join(out, workload + ".trace.json")) as f:
                    trace = json.load(f)
                self.assertGreater(len(trace["traceEvents"]), 0)
                for event in trace["traceEvents"]:
                    self.assertEqual(event["ph"], "X")
                    self.assertGreaterEqual(event["dur"], 0)
                with open(os.path.join(out, workload + ".layers.json")) as f:
                    layers = json.load(f)
                self.assertGreater(len(layers["self_time"]), 0)
                self.assertIn("git_sha", layers["manifest"])

    def test_seed_changes_inputs_not_metric_names(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                a = run_bench(workload, seed=1)
                b = run_bench(workload, seed=2)
                self.assertNotEqual(outputs_of(a), outputs_of(b))
                self.assertEqual(set(result_of(a)["metrics"]),
                                 set(result_of(b)["metrics"]))
                self.assertEqual(result_of(b)["failed"], 0)

    def test_corrupted_golden_value_counts_as_failed_op(self):
        os.makedirs(SCRATCH, exist_ok=True)
        golden = os.path.join(SCRATCH, "golden.txt")
        key = "coevo.fixed.race.threshold "
        with open(os.path.join(ROOT, "perfbench", "golden.txt")) as f:
            lines = f.read().splitlines()
        self.assertTrue(any(l.startswith(key) for l in lines))
        with open(golden, "w") as f:
            for line in lines:
                f.write((key + "0" * 16 if line.startswith(key) else line)
                        + "\n")
        proc = run_bench("coevo", extra=["--golden", golden])
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = result_of(proc)
        self.assertEqual(result["failed"], 1)
        self.assertFalse(result["correct"])
        self.assertIn("CHECK FAILED: golden fixed.race.threshold",
                      proc.stdout)

    def test_runs_leave_the_tree_unmodified(self):
        before = tree_digest()
        for workload in WORKLOADS:
            self.assertEqual(run_bench(workload).returncode, 0)
        self.assertEqual(tree_digest(), before)

    def test_refuses_to_run_without_the_repository(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(os.path.join(ROOT, "perfbench"),
                        os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run_bench("dse", cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
