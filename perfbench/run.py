#!/usr/bin/env python3
"""Builds and runs the end-to-end serving benchmark (see README.md).

Run from the repository root:

    python3 perfbench/run.py --workload serve_steady --seed 1 --seconds 10 --trace 0

The first run configures and builds the library and the benchmark in
.bench_build/ (Release); later runs only check the build is up to date.
Build output goes to stderr, so the last line of stdout is the benchmark's
JSON result. Extra flags (--smoke) are passed through to the benchmark.
"""

import argparse
import os
import pathlib
import shutil
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".bench_build" / "work"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("serve_steady", "ingest_refresh", "checkpoint_recover")
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise RuntimeError(
            f"library sources not found in {ROOT}: the benchmark builds "
            "the repository's CMake project and cannot run without it")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(BUILD),
             "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(BUILD), "--target", "pie_e2e_bench",
         "-j", "4"],
        stdout=sys.stderr, check=True)
    return BUILD / "pie_e2e_bench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs; finishes in seconds")
    args = parser.parse_args()
    try:
        binary = build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    # One work directory per process, so concurrent runs never share
    # checkpoint directories; spans of a traced run are kept in TRACES.
    work = WORK / str(os.getpid())
    TRACES.mkdir(parents=True, exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", args.trace, "--work-dir", str(work),
               "--trace-out",
               str(TRACES / f"{args.workload}-{args.seed}.jsonl")]
    if args.smoke:
        command.append("--smoke")
    try:
        return subprocess.run(command, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
