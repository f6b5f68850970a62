#!/usr/bin/env python3
"""Smoke-length self-test of the benchmark.

    python3 dvbench/selftest.py

Run from the root of a checkout; takes about two minutes. Checks that:
  1. every workload prints every end-to-end metric of BENCHMARK.json with
     its declared unit, and passes its correctness gate;
  2. a traced run prints every per-layer metric with its declared unit;
  3. the correctness gate trips on a deliberately corrupted verdict;
  4. a second seed yields different frames but the same metric names.
Exits 0 when all hold, 1 otherwise.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SMOKE_SECONDS = "2"


def run(workload, seed, trace, *extra):
    command = [sys.executable, str(ROOT / "dvbench" / "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", SMOKE_SECONDS, "--trace", str(trace), *extra]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr[-3000:]}")
    lines = done.stdout.strip().splitlines()
    digest = next(json.loads(l)["input_digest"] for l in lines if l.startswith('{"input_digest"'))
    return json.loads(lines[-1]), digest


def check_metrics(result, declared, what):
    got = result["metrics"]
    for m in declared:
        assert m["name"] in got, f"{what}: metric {m['name']} missing"
        assert got[m["name"]]["unit"] == m["unit"], f"{what}: {m['name']} unit differs"
        assert isinstance(got[m["name"]]["value"], (int, float)), f"{what}: {m['name']} not a number"
    assert set(got) == {m["name"] for m in declared}, f"{what}: undeclared metrics printed"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []

    def case(name, body):
        try:
            body()
            print(f"ok   {name}")
        except AssertionError as e:
            failures.append(name)
            print(f"FAIL {name}: {e}")

    digests = {}

    def end_to_end(workload):
        def body():
            result, digest = run(workload, 1, 0)
            digests[workload] = (digest, sorted(result["metrics"]))
            check_metrics(result, spec["end_to_end"], workload)
            assert result["correct"] and result["failed"] == 0, f"{workload}: gate failed"
            assert result["attempted"] >= 1
        return body

    for w in spec["workloads"]:
        case(f"{w['name']}: end-to-end metrics with units, gate passes", end_to_end(w["name"]))

    def traced():
        result, _ = run("live_stream", 1, 1)
        check_metrics(result, spec["per_layer"], "live_stream traced")
        assert result["correct"], "traced run failed its gate"
    case("live_stream traced: per-layer metrics with units", traced)

    def corrupted():
        result, _ = run("live_stream", 1, 0, "--corrupt-verdict")
        assert not result["correct"] and result["failed"] >= 1, "gate did not trip"
    case("gate trips on a corrupted verdict", corrupted)

    def second_seed():
        assert "live_stream" in digests, "no seed-1 live_stream run to compare with"
        result, digest = run("live_stream", 2, 0)
        first_digest, first_names = digests["live_stream"]
        assert digest != first_digest, "seed 2 produced the same frames as seed 1"
        assert sorted(result["metrics"]) == first_names, "metric names differ between seeds"
    case("second seed: different frames, same metric names", second_seed)

    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
