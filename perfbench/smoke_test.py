#!/usr/bin/env python3
"""Smoke test of the benchmark: a one-second run of every workload in both
trace modes must succeed, print every metric BENCHMARK.json names and the
workload's unbounded figures (each with its unit), report a correct
result carrying exactly the named metrics, and leave a well-formed,
stamped result file; compare.py must accept two results with
equal stamps and refuse two whose stamps differ.

    python3 perfbench/smoke_test.py

Run from the root of a source checkout; exits 0 when every check passes.
"""
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(ROOT, ".bench_build", "results")

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(workload, trace, seed=1):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
    except (IndexError, ValueError):
        last = None
    return proc, last


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    # The unbounded figures each trace-0 run also prints.
    detail = {"batch": {"set_ms_p50": "ms", "set_ms_p95": "ms",
                        "sets_per_s": "1/s", "vt_ms_p95": "ms",
                        "failed_frac": "ratio"},
              "serve": {"serve_ms_p50": "ms", "serve_ms_p99": "ms",
                        "serve_max_rps": "1/s", "vt_ms_p95": "ms",
                        "failed_frac": "ratio"}}

    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            tag = f"{workload} --trace {trace}"
            proc, result = run(workload, trace)
            check(proc.returncode == 0, f"{tag}: exit code 0")
            if result is None:
                check(False, f"{tag}: last line is JSON")
                continue
            check(set(result) == {"correct", "attempted", "failed", "metrics"},
                  f"{tag}: result has exactly the four keys")
            check(result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1,
                  f"{tag}: correct, nothing failed")
            units = {k: v.get("unit") for k, v in result["metrics"].items()}
            check(units == expected[trace],
                  f"{tag}: every named metric, with its unit")
            check(all(isinstance(v.get("value"), (int, float))
                      for v in result["metrics"].values()),
                  f"{tag}: numeric values")
            table = proc.stdout.strip().splitlines()[:-1]
            printed = dict(expected[trace])
            if trace == 0:
                printed.update(detail["serve" if workload == "serve-open"
                                      else "batch"])
            check(all(any(line.split()[:1] == [name] and
                          line.split()[-1] == unit for line in table)
                      for name, unit in printed.items()),
                  f"{tag}: prints every named metric as a line with its unit")
            path = os.path.join(RESULTS, f"{workload}-seed1-trace{trace}.json")
            try:
                with open(path) as f:
                    stored = json.load(f)
            except (OSError, ValueError):
                stored = None
            check(stored is not None, f"{tag}: result file is JSON")
            if stored is not None:
                check(set(stored["env"]) == {"nproc", "build_type", "compiler",
                                             "transport", "commit"},
                      f"{tag}: result file carries the environment stamp")
                check(stored["seed"] == 1 and stored["workload"] == workload,
                      f"{tag}: result file records workload and seed")

    # compare.py: equal stamps compare, differing stamps are refused.
    base = os.path.join(RESULTS, "serve-open-seed1-trace0.json")
    compare = os.path.join(HERE, "compare.py")
    same = subprocess.run([sys.executable, compare, base, "--", base],
                          capture_output=True, text=True)
    check(same.returncode == 0, "compare: equal stamps compare")
    with open(base) as f:
        other = json.load(f)
    other["env"]["nproc"] = other["env"]["nproc"] + 1
    with tempfile.NamedTemporaryFile("w", suffix=".json", dir=RESULTS,
                                     delete=False) as f:
        json.dump(other, f)
        doctored = f.name
    try:
        differ = subprocess.run([sys.executable, compare, base, "--", doctored],
                                capture_output=True, text=True)
    finally:
        os.unlink(doctored)
    check(differ.returncode == 2, "compare: differing stamps are refused")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
