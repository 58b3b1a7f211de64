#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload at a tiny size.

    python3 perfbench/smoke_test.py

Runs each workload of BENCHMARK.json with --small, untraced and traced,
and asserts the result line: correct, no failed op, and exactly the
end-to-end (untraced) or per-layer (traced) metrics with their units, the
end-to-end ones positive. Then checks that the command fails without
printing a result in a directory holding only BENCHMARK.json and the
benchmark's own files. Exits nonzero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run(cwd, workload, trace):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "7", "--seconds", "1",
           "--trace", str(trace), "--small"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=900)


def check_result(spec, workload, trace, proc):
    where = "%s --trace %d" % (workload, trace)
    assert proc.returncode == 0, "%s: exit %d\n%s" % (
        where, proc.returncode, proc.stderr[-2000:])
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True, where
    assert result["failed"] == 0, where
    assert result["attempted"] >= 1, where
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    assert sorted(got) == sorted(m["name"] for m in wanted), (
        "%s: metric names differ from BENCHMARK.json" % where)
    for m in wanted:
        assert got[m["name"]]["unit"] == m["unit"], (where, m["name"])
        if not trace:
            assert got[m["name"]]["value"] > 0, (where, m["name"])
    if trace:
        for name in ("trace.wall_ns_per_op", "trace.layer_sum_ns_per_op",
                     "trace.cpu_us_per_op", "trace.overhead_ratio"):
            assert got[name]["value"] > 0, (where, name)


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: no sources, so no result."""
    bare = os.path.join(ROOT, ".bench_build", "smoke-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    try:
        proc = run(bare, "pipeline_cached", 0)
        assert proc.returncode != 0, "bare directory: exit 0"
        for line in proc.stdout.splitlines():
            assert not line.startswith("{"), "bare directory printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_result(spec, w["name"], trace, run(ROOT, w["name"], trace))
            print("ok  %s --trace %d" % (w["name"], trace), flush=True)
    check_bare_directory()
    print("ok  bare directory fails without a result")
    return 0


if __name__ == "__main__":
    sys.exit(main())
