#!/usr/bin/env python3
"""Tests of the benchmark itself, on tiny (--smoke) inputs.

Run from the repository root:  python3 perfbench/test_bench.py
"""

import json
import pathlib
import re
import subprocess
import sys
import time
import unittest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402  (the benchmark's runner, beside this file)

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
SMOKE_LIMIT_S = 30


def bench(workload, seed, trace):
    """Runs one smoke-sized benchmark; returns (stdout lines, result)."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, check=True, timeout=SMOKE_LIMIT_S)
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def digests(lines):
    for line in lines:
        match = re.search(r"inputs_digest (\w+)  answers_digest (\w+)", line)
        if match:
            return match.groups()
    raise AssertionError("no digest line in the output")


class BenchmarkTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.build()

    def test_same_seed_same_inputs_and_answers(self):
        first, _ = bench("serve_steady", 7, 0)
        again, _ = bench("checkpoint_recover", 7, 0)
        other, _ = bench("serve_steady", 8, 0)
        self.assertEqual(digests(first), digests(again))
        self.assertNotEqual(digests(first)[0], digests(other)[0])

    def test_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]],
                         list(run.WORKLOADS))
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in run.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    _, result = bench(workload, 3, trace)
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: m["unit"]
                           for name, m in result["metrics"].items()}
                    self.assertEqual(got, want)

    def test_smoke_run_finishes_in_seconds(self):
        start = time.monotonic()
        _, result = bench("ingest_refresh", 5, 1)
        self.assertLess(time.monotonic() - start, 15)
        self.assertTrue(result["correct"])

    def test_rejects_bad_arguments(self):
        for args in (["--workload", "nope"], ["--seed", "x"]):
            with self.subTest(args=args):
                flags = {"--workload": "serve_steady", "--seed": "1",
                         "--seconds": "1", "--trace": "0"}
                flags.update(dict(zip(args[::2], args[1::2])))
                command = [sys.executable, str(HERE / "run.py")]
                for flag, value in flags.items():
                    command += [flag, value]
                out = subprocess.run(command, capture_output=True,
                                     timeout=SMOKE_LIMIT_S)
                self.assertNotEqual(out.returncode, 0)
                self.assertEqual(out.stdout, b"")


if __name__ == "__main__":
    unittest.main()
