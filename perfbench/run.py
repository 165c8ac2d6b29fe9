#!/usr/bin/env python3
"""Build and run the openSAGE benchmark (sagebench) for one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which builds the library from ../src) in
.bench_build/perfbench; later runs only rebuild what changed. sagebench
writes its result file to .bench_build/results/ and prints every metric;
the last line of standard output is the result as one JSON object.
Exits non-zero, without printing a result, when the sources are missing
or the build fails.
"""
import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ("fft2d-1024x4", "cornerturn-1024x4-shared",
             "cornerturn-1024x4-faults", "serve-open")


def commit_id():
    """The checked-out commit, read from .git without running git (a
    checkout without .git reports "unknown")."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.exists(loose):
            with open(loose) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def build():
    """Configures (once) and builds sagebench; returns its path."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: no openSAGE sources next to perfbench/")
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=log, stderr=log, check=True)
    subprocess.run(["cmake", "--build", BUILD, "--target", "sagebench",
                    "-j", "4"], stdout=log, stderr=log, check=True)
    return os.path.join(BUILD, "sagebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    try:
        binary = build()
    except (subprocess.CalledProcessError, OSError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(
        RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", out, "--commit", commit_id()]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
