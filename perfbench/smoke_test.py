#!/usr/bin/env python3
"""Smoke test of the dump <-> restore benchmark: tiny fields, short runs.

    python3 perfbench/smoke_test.py

For every workload and both trace modes it checks that the result line
parses, that the run is correct, and that every metric BENCHMARK.json names
for that mode is printed exactly once, with its unit, in both the report
and the result line. It then repeats each run with the same seed and checks
that the exact-count metrics read the same, digit for digit. Exits non-zero
on the first failure.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

# Metrics that are pure functions of the seed: byte and slab counts.
EXACT = {"compression_ratio", "wire_bytes_per_raw_byte", "checkpoint.slabs",
         "nfs.rpcs_per_op", "nfs.bytes_sent_per_op", "stream.queue_pushes",
         "framing.overhead_bytes_per_raw_byte", "sz.zlite_gain",
         "replica.bytes_replicated_per_op", "replica.read_failovers"}


def expected(bench, trace):
    metrics = bench["per_layer"] if trace else bench["end_to_end"]
    return {m["name"]: m["unit"] for m in metrics}


def run_once(binary, workload, trace, seed):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", "0.5", "--trace", str(trace), "--smoke"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=170)
    if proc.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(cmd), proc.returncode))
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def check(bench, binary, workload, trace):
    want = expected(bench, trace)
    report, result = run_once(binary, workload, trace, seed=7)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["failed"] == 0, result
    assert result["attempted"] >= 1, result
    got = result["metrics"]
    assert set(got) == set(want), (sorted(set(want) ^ set(got)))
    for name, unit in want.items():
        assert got[name]["unit"] == unit, (name, got[name], unit)
        printed = [l for l in report if l.split()[:1] == [name]]
        assert len(printed) == 1, (name, printed)
        assert printed[0].split()[-1] == unit, printed[0]

    _, again = run_once(binary, workload, trace, seed=7)
    for name in got:
        exact = name.startswith("inc.") and not name.endswith("_ms")
        if name in EXACT or exact:
            assert got[name]["value"] == again["metrics"][name]["value"], (
                workload, name, got[name], again["metrics"][name])


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            check(bench, binary, workload, trace)
            print("ok  %-20s trace=%d" % (workload, trace), flush=True)
    print("smoke test passed")


if __name__ == "__main__":
    main()
