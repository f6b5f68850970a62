#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 dvbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
dvbench (this directory's CMake project, which compiles the library sources
under src/) into .bench_build/dvbench, or under $CARGO_TARGET_DIR when that
is set; later runs only rebuild what changed. The run pins the production
defaults: DV_THREADS is the number of CPUs this process may use, DV_CACHE
is on, and every other DV_* knob is unset. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1. Build output and diagnostics go to standard error.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840
# Knobs whose production default is "unset"; the run removes them.
UNSET_KNOBS = ["DV_CACHE_CAPACITY", "DV_SIMD", "DV_METRICS", "DV_METRICS_DETERMINISTIC",
               "DV_FAST", "DV_SCALE", "DV_SNAPSHOT_MMAP", "DV_ARTIFACT_DIR"]


def fail(message, code):
    print(f"dvbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "dvbench"


def build(out_dir):
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"library sources not found under {ROOT / 'src'}", 2)
    jobs = str(min(4, len(os.sched_getaffinity(0))))
    steps = []
    if not (out_dir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out_dir), "-j", jobs, "--target", "dvbench"])
    for step in steps:
        try:
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out", 3)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}", 3)
    return out_dir / "dvbench"


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["live_stream", "static_camera", "table6_offline"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    parser.add_argument("--corrupt-verdict", action="store_true",
                        help="self-test hook: flip one served verdict before the gate")
    args = parser.parse_args()

    names = declared_metrics(args.trace)
    out_dir = build_dir()
    binary = build(out_dir)
    trace_dir = out_dir / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)

    env = dict(os.environ)
    for knob in UNSET_KNOBS:
        env.pop(knob, None)
    env["DV_THREADS"] = str(len(os.sched_getaffinity(0)))
    env["DV_CACHE"] = "on"
    command = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--trace-dir", str(trace_dir)]
    if args.corrupt_verdict:
        command.append("--corrupt-verdict")
    print(json.dumps({"set_by_run_py": {"DV_THREADS": env["DV_THREADS"], "DV_CACHE": "on",
                                        "unset": UNSET_KNOBS}}), flush=True)
    try:
        done = subprocess.run(command, env=env, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 4)
    if done.returncode != 0:
        fail(f"dvbench exited with code {done.returncode}", 5)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("dvbench printed no result", 5)
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    measured = result["metrics"]
    missing = [n for n in names if n not in measured]
    if missing:
        fail(f"metrics not measured: {', '.join(missing)}", 6)
    # Every metric the run measured, for diagnosis; the result line below
    # carries exactly the declared set.
    print(json.dumps({"all_metrics": measured}))
    result["metrics"] = {n: measured[n] for n in names}
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
