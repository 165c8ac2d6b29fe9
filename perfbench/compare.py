#!/usr/bin/env python3
"""Compare two groups of perfbench result files.

    python3 perfbench/compare.py BASE.json [BASE2.json ...] -- NEW.json [...]

Both groups must hold results of one workload in one trace mode, run with
the same --seconds, and every file must carry the same environment stamp
apart from the commit (the commit is what is being compared); otherwise
the comparison is refused with exit code 2. For every metric the medians
of the two groups are printed with their change. Metrics bounded in
BENCHMARK.json are checked: exit 1 when one got worse by more than its
bound, 0 otherwise.
"""
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def refuse(why):
    print(f"compare: refused: {why}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            result = json.load(f)
    except (OSError, ValueError) as err:
        refuse(f"{path}: {err}")
    for key in ("workload", "trace", "seconds", "env", "metrics", "correct"):
        if key not in result:
            refuse(f"{path}: no '{key}'")
    return result


def stamp(result):
    """Everything two comparable results must share."""
    env = {k: v for k, v in result["env"].items() if k != "commit"}
    return (result["workload"], result["trace"], result["seconds"],
            json.dumps(env, sort_keys=True))


def bounds():
    """name -> (better, bound); the bound is None for per-layer metrics."""
    with open(BENCHMARK) as f:
        spec = json.load(f)
    return {m["name"]: (m["better"], m.get("bound"))
            for m in spec["end_to_end"] + spec["per_layer"]}


def main(argv):
    if "--" not in argv:
        refuse("usage: compare.py BASE.json [...] -- NEW.json [...]")
    split = argv.index("--")
    base = [load(p) for p in argv[:split]]
    new = [load(p) for p in argv[split + 1:]]
    if not base or not new:
        refuse("each side needs at least one result file")
    stamps = {stamp(r) for r in base + new}
    if len(stamps) != 1:
        for s in sorted(stamps):
            print(f"  stamp: {s}", file=sys.stderr)
        refuse("results differ in workload, trace mode, seconds or "
               "environment (nproc, build type, compiler, transport)")
    for r in base + new:
        if not r["correct"]:
            refuse(f"a {r['workload']} result (seed {r.get('seed')}) is "
                   "not correct")

    spec = bounds()
    worse = []
    names = sorted(set(base[0]["metrics"]) | set(new[0]["metrics"]))
    print(f"{base[0]['workload']} trace {base[0]['trace']}: "
          f"{len(base)} base vs {len(new)} new results")
    for name in names:
        a = [r["metrics"][name]["value"] for r in base if name in r["metrics"]]
        b = [r["metrics"][name]["value"] for r in new if name in r["metrics"]]
        if not a or not b:
            continue
        ma, mb = statistics.median(a), statistics.median(b)
        change = (mb - ma) / ma if ma else float("nan")
        better, bound = spec.get(name, ("lower", None))
        got_worse = change > 0 if better == "lower" else change < 0
        flag = ""
        if bound is not None and got_worse and abs(change) > bound:
            flag = f"  WORSE than bound {bound:.0%}"
            worse.append(name)
        unit = base[0]["metrics"][name]["unit"]
        print(f"  {name:28s} {ma:14.6g} -> {mb:14.6g} {unit:8s} "
              f"{change:+8.1%}{flag}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
