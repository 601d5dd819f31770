#!/usr/bin/env python3
"""Counters-only gate over the request benchmark (ROADMAP perf-record item (b)).

`reqbench --smoke --trace 1 --seed 1` prints per-layer counts that are a pure
function of the code — work counters, kernel tallies, cache events, request
counts — and repeat bit for bit on any host. BENCH_request_counters.json holds
them for the three declared workloads; this script reruns the benchmark and
fails on any difference, so a change that moves a counter has to say so by
re-recording the file (`--record`). No wall-clock is read: the gate needs no
quiet host, and nothing under reqbench/ or BENCHMARK.json is touched.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RECORD = ROOT / "BENCH_request_counters.json"
REQBENCH = ["cargo", "run", "--release", "--quiet", "--manifest-path", "reqbench/Cargo.toml", "--"]
FLAGS = ["--smoke", "--trace", "1", "--seed", "1"]
WORKLOADS = ["triangle_join", "needle_cached", "social_decode"]
COUNTERS = [
    "core.exec.total_work",
    "core.exec.work_per_row",
    "storage.kernels.merge",
    "storage.kernels.gallop",
    "storage.kernels.bitmap",
    "storage.cache.misses",
    "storage.cache.incremental_merges",
    "storage.cache.evictions",
    "trace.requests",
    "service.admitted",
]


def measure(workload):
    run = subprocess.run(
        REQBENCH + FLAGS + ["--workload", workload], cwd=ROOT, check=True, capture_output=True, text=True
    )
    result = json.loads(run.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload}: the benchmark's own checks failed: {result}")
    return {name: result["metrics"][name]["value"] for name in COUNTERS}


def main():
    measured = {workload: measure(workload) for workload in WORKLOADS}
    if "--record" in sys.argv[1:]:
        document = {"command": " ".join(REQBENCH + FLAGS + ["--workload", "<name>"]), "workloads": measured}
        RECORD.write_text(json.dumps(document, indent=2) + "\n")
        print(f"recorded {RECORD.name}")
        return
    committed = json.loads(RECORD.read_text())["workloads"]
    moved = [
        f"{workload} {name}: committed {committed[workload].get(name)} measured {value}"
        for workload, counters in measured.items()
        for name, value in counters.items()
        if committed[workload].get(name) != value
    ]
    if moved:
        sys.exit("request counters moved (re-record with --record if intended):\n  " + "\n  ".join(moved))
    print(f"{len(WORKLOADS) * len(COUNTERS)} request counters identical to {RECORD.name}")


if __name__ == "__main__":
    main()
