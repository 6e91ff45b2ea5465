#!/usr/bin/env python3
"""Compares two sets of benchmark runs.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines that `run.py --out` appends: any number of
runs of any workloads. For every workload and metric the script prints both
sides' median and quartiles and a verdict against the bound BENCHMARK.json
fixes for the metric:

  better        the new median is better by more than the bound, or every
                new run beats every base run
  WORSE         the new median is worse by more than the bound
  within bound  the medians differ by less than the bound
  unresolved    a side's quartile spread is wider than the bound, so these
                runs cannot tell a change from noise
  no bound      a per-layer metric; the change is shown, not judged

The exit code is 1 when any metric reads WORSE.
"""

import json
import os
import sys

sys.dont_write_bytecode = True
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))


def load_spec():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def load_runs(path):
    """{(workload, trace): {"metrics": {name: [values]}, "runs", "failed",
    "attempted"}}"""
    groups = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            g = groups.setdefault((run["workload"], run["trace"]),
                                  {"metrics": {}, "runs": 0, "failed": 0,
                                   "attempted": 0})
            g["runs"] += 1
            g["failed"] += run["failed"]
            g["attempted"] += run["attempted"]
            for name, m in run["metrics"].items():
                g["metrics"].setdefault(name, []).append(m["value"])
    return groups


def verdict(base, new, bound, lower_better):
    sign = 1.0 if lower_better else -1.0
    b_med, n_med = stats.median(base), stats.median(new)
    worse_by = sign * (n_med - b_med) / b_med
    if len(base) > 1 and len(new) > 1 and all(
            sign * (n - b) < 0 for n in new for b in base):
        return "better"
    if bound is None:
        return "no bound"
    if stats.spread(base) > bound or stats.spread(new) > bound:
        return "unresolved"
    if worse_by > bound:
        return "WORSE"
    if -worse_by > bound:
        return "better"
    return "within bound"


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    spec = load_spec()
    base, new = load_runs(argv[1]), load_runs(argv[2])
    any_worse = False
    for key in sorted(set(base) & set(new)):
        b, n = base[key], new[key]
        print("%s, trace %d: base %d runs (%d of %d executions failed), "
              "new %d runs (%d of %d failed)" % (
                  key[0], key[1], b["runs"], b["failed"], b["attempted"],
                  n["runs"], n["failed"], n["attempted"]))
        print("  %-30s %-9s %28s %28s %8s  %s" % (
            "metric", "unit", "base median [q1, q3]", "new median [q1, q3]",
            "change", "verdict"))
        for name in sorted(set(b["metrics"]) & set(n["metrics"])):
            m = spec.get(name, {})
            bv, nv = b["metrics"][name], n["metrics"][name]
            bq, nq = stats.quartiles(bv), stats.quartiles(nv)
            v = verdict(bv, nv, m.get("bound"), m.get("better", "lower") == "lower")
            any_worse = any_worse or v == "WORSE"
            print("  %-30s %-9s %10.4g [%7.4g, %7.4g] %10.4g [%7.4g, %7.4g] "
                  "%+7.1f%%  %s" % (name, m.get("unit", ""), bq[1], bq[0], bq[2],
                                    nq[1], nq[0], nq[2],
                                    100.0 * (nq[1] - bq[1]) / bq[1], v))
        print()
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
