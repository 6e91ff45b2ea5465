#!/usr/bin/env python3
"""Runs one workload of the pjoin benchmark and prints its metrics.

    python3 perfbench/run.py --workload tpch|micro-join|server-spill \\
        --seed N --seconds S --trace 0|1 [--out results.jsonl]

Builds the driver from source into .bench_build/ (first run only), runs it,
checks that every query returned the reference result, and prints a report
followed by one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 the per-layer ones. --out appends the result, with its host
and config block, to a JSON-lines file that compare.py reads.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
import stats  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
DRIVER = os.path.join(BUILD, "perfbench", "perfbench_driver")
DEADLINE_S = 175  # a run must end within 180 s

WORKLOADS = ("tpch", "micro-join", "server-spill")

# Query classes behind point_p50_ms, point_p90_ms and heavy_p50_ms. In
# server-spill they are the two query kinds of the mix. In tpch "point" is
# the 15 short queries and "heavy" the longest one, Q21. In micro-join
# "point" is every run of the pass and "heavy" kAuto on workload B, where it
# picks the slower strategy. Each class is a set of query names; None means
# every query of the workload.
HEAVY_TPCH = ("Q17", "Q18", "Q20", "Q21")
CLASSES = {
    "tpch": {
        "point": tuple("Q%d" % q for q in (2, 3, 4, 5, 7, 8, 9, 10, 11, 12,
                                           14, 15, 16, 19, 22)),
        "heavy": ("Q21",),
    },
    "micro-join": {"point": None, "heavy": ("B.auto",)},
    "server-spill": {"point": ("point",), "heavy": ("heavy",)},
}
MICRO_INPUTS = ("A", "B", "A10")


class RunError(Exception):
    pass


def build():
    """Configures and builds the driver; output goes to a log file so the
    last stdout line stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RunError("engine sources not found under %s/src" % ROOT)
    os.makedirs(os.path.dirname(DRIVER), exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "perfbench", "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", os.path.dirname(DRIVER),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", os.path.dirname(DRIVER), "-j", "4",
                  "--target", "perfbench_driver"])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise RunError("build failed: " + " ".join(cmd))


def run_driver(args, started):
    spill_dir = os.path.join(BUILD, "spill")
    raw_dir = os.path.join(BUILD, "raw")
    os.makedirs(spill_dir, exist_ok=True)
    os.makedirs(raw_dir, exist_ok=True)
    raw = os.path.join(raw_dir, "%s-%d-%d.json" % (args.workload, args.seed,
                                                   args.trace))
    # The driver fixes every engine setting itself; only the spill
    # directory comes from the environment, and it stays in the checkout.
    env = {k: v for k, v in os.environ.items() if not k.startswith("PJOIN_")}
    env["PJOIN_SPILL_DIR"] = spill_dir
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", raw]
    timeout = max(1.0, DEADLINE_S - (time.time() - started))
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunError("driver did not finish within %.0f s" % timeout)
    if proc.returncode != 0:
        raise RunError("driver exited with %d" % proc.returncode)
    with open(raw) as f:
        return json.load(f)


# --- metrics -----------------------------------------------------------------

def class_samples(section, cls):
    names = CLASSES[section["workload"]][cls]
    return [q["latency_s"] for q in section["queries"]
            if q["pass"] >= 0 and (names is None or q["name"] in names)]


def per_query_medians(section):
    by_name = {}
    for q in section["queries"]:
        if q["pass"] >= 0:
            by_name.setdefault(q["name"], []).append(q["latency_s"])
    return {name: stats.median(v) for name, v in by_name.items()}


def require(name, value):
    if value is None:
        raise RunError("metric %s has too few samples" % name)
    return value


def end_to_end(raw):
    sec = raw["sections"][0]
    walls = [p["wall_s"] for p in sec["passes"]]
    queries = [q for q in sec["queries"] if q["pass"] >= 0]
    medians = per_query_medians(sec)
    point = class_samples(sec, "point")
    heavy = class_samples(sec, "heavy")
    ms = 1e3
    values = {
        "setup_s": (stats.median(sec["setup_s"]), "s"),
        "suite_s": (stats.median(walls), "s"),
        "query_geomean_ms": (stats.geomean(list(medians.values())) * ms, "ms"),
        "qps": (len(queries) / sum(walls), "1/s"),
        "point_p50_ms": (stats.percentile(point, 50) * ms, "ms"),
        "point_p90_ms": (require("point_p90_ms", stats.percentile(point, 90)) * ms,
                         "ms"),
        "heavy_p50_ms": (stats.median(heavy) * ms, "ms"),
        "peak_rss_mib": (raw["peak_rss_kib"] / 1024.0, "MiB"),
    }
    samples = {
        "setup_s": len(sec["setup_s"]), "suite_s": len(walls),
        "query_geomean_ms": len(queries), "qps": len(queries),
        "point_p50_ms": len(point), "point_p90_ms": len(point),
        "heavy_p50_ms": len(heavy), "peak_rss_mib": 1,
    }
    return values, samples


class Spans:
    """Span lookups for the per-layer metrics of a traced run."""

    def __init__(self, raw):
        self.spans = raw["spans"]
        self.self_ns = stats.self_times(self.spans)
        self.traced_passes = {p["id"] for s in raw["sections"]
                              for p in s["passes"] if p["traced"]}

    def root(self, i):
        while self.spans[i]["parent"] >= 0:
            i = self.spans[i]["parent"]
        return self.spans[i]["name"]

    def select(self, name, root=None):
        return [i for i, s in enumerate(self.spans)
                if s["name"] == name and (root is None or self.root(i) == root)]

    def dur(self, i):
        s = self.spans[i]
        return (s["end_ns"] - s["start_ns"]) * 1e-9

    def median_dur(self, name, root=None):
        return stats.median([self.dur(i) for i in self.select(name, root)])

    def median_rate(self, name, per, scale):
        """Median over spans of `per` (items or bytes) per second."""
        return stats.median([self.spans[i][per] / self.dur(i) / scale
                             for i in self.select(name)])

    def median_per_item(self, name, scale):
        return stats.median([self.dur(i) / self.spans[i]["items"] * scale
                             for i in self.select(name)])

    def pass_sums(self, names):
        """Per traced pass, the summed duration of the spans in `names`."""
        sums = {}
        for i, s in enumerate(self.spans):
            if s["name"] in names and s["pass"] in self.traced_passes:
                sums[s["pass"]] = sums.get(s["pass"], 0.0) + self.dur(i)
        return list(sums.values())

    def median_self(self, name):
        return stats.median([self.self_ns[i] * 1e-9 for i in self.select(name)])


def section(raw, workload):
    return next(s for s in raw["sections"] if s["workload"] == workload)


def traced_counts(sec, key):
    return [p["counts"][key] for p in sec["passes"] if p["traced"]]


def per_layer(raw):
    sp = Spans(raw)
    tpch = section(raw, "tpch")
    micro = section(raw, "micro-join")
    server = section(raw, "server-spill")
    own = raw["sections"][0]
    values = {}  # name -> (value, unit, span whose self time explains it)

    def put(name, value, unit, span=None):
        values[name] = (require(name, value), unit, span)

    put("tpch.generate_s", sp.median_dur("tpch.generate"), "s", "tpch.generate")
    put("storage.encode_s", sp.median_dur("storage.encode", "tpch.setup"), "s",
        "storage.encode")
    put("stats.collect_s", sp.median_dur("stats.collect", "tpch.setup"), "s",
        "stats.collect")
    put("bench_util.generate_s",
        sp.median_dur("bench_util.generate", "micro-join.setup"), "s",
        "bench_util.generate")

    engine = [p["counts"]["engine_s"] for p in tpch["passes"] if p["traced"]]
    outside = [p["wall_s"] - p["counts"]["engine_s"]
               for p in tpch["passes"] if p["traced"]]
    put("engine.execute_s", stats.median(engine), "s")
    put("tpch.outside_engine_s", stats.median(outside), "s", "tpch.pass")
    heavy = {"tpch." + q for q in HEAVY_TPCH}
    other = {"tpch." + q for q in CLASSES["tpch"]["point"]}
    put("tpch.q17_18_20_21_s", stats.median(sp.pass_sums(heavy)), "s")
    put("tpch.other15_s", stats.median(sp.pass_sums(other)), "s")

    for name in ("engine.scan_filter", "engine.groupby", "join.tpch_bhj",
                 "join.tpch_rj"):
        put(name + "_ms", sp.median_dur(name) * 1e3, "ms", name)
    put("rewrite.plan_us", sp.median_per_item("rewrite.plan", 1e6), "us",
        "rewrite.plan")
    put("engine.advise_us", sp.median_per_item("engine.advise", 1e6), "us",
        "engine.advise")

    strategy_ms = {}
    for strategy in ("BHJ", "RJ", "BRJ", "auto"):
        strategy_ms[strategy] = [
            stats.median([sp.dur(i) for i in sp.select("micro.%s.%s" % (inp, strategy))
                          if sp.spans[i]["pass"] in sp.traced_passes]) * 1e3
            for inp in MICRO_INPUTS]
        put("join.%s_ms" % strategy.lower(), stats.geomean(strategy_ms[strategy]),
            "ms")
    put("advisor.auto_vs_best",
        stats.geomean([strategy_ms["auto"][k] / min(strategy_ms[s][k]
                                                     for s in ("BHJ", "RJ", "BRJ"))
                       for k in range(len(MICRO_INPUTS))]), "x")
    put("partition.radix_mtuples_s",
        sp.median_rate("partition.radix", "items", 1e6), "Mtuples/s",
        "partition.radix")
    for name in ("hash_table.chaining_build", "hash_table.chaining_probe",
                 "hash_table.robin_hood", "filter.bloom_probe"):
        put(name + "_ns", sp.median_per_item(name, 1e9), "ns", name)

    mib = float(1 << 20)
    for name in ("spill.write", "spill.read", "spill.page_encode",
                 "spill.page_decode"):
        put(name + "_mib_s", sp.median_rate(name, "bytes", mib), "MiB/s", name)
    put("server.queue_wait_ms",
        stats.median([q["queue_s"] for q in server["queries"]
                      if q["pass"] in sp.traced_passes]) * 1e3, "ms")

    put("engine.source_tuples", stats.median(traced_counts(tpch, "source_tuples")),
        "count")
    put("exec.bytes_read", stats.median(traced_counts(tpch, "bytes_read")), "B")
    put("exec.bytes_written", stats.median(traced_counts(tpch, "bytes_written")),
        "B")
    put("join.partition_bytes",
        stats.median(traced_counts(micro, "partition_bytes")), "B")
    put("join.bloom_dropped", stats.median(traced_counts(micro, "bloom_dropped")),
        "count")
    per_heavy = {}
    for key in ("spill_bytes_written", "spill_physical_bytes_written",
                "governor_denials"):
        per_heavy[key] = stats.median(
            [p["counts"][key] / p["counts"]["heavy_queries"]
             for p in server["passes"]
             if p["traced"] and p["counts"].get("heavy_queries")])
    put("spill.bytes_written", per_heavy["spill_bytes_written"], "B")
    put("spill.physical_bytes_written", per_heavy["spill_physical_bytes_written"],
        "B")
    put("spill.governor_denials", per_heavy["governor_denials"], "count")

    traced = [p["wall_s"] for p in own["passes"] if p["traced"]]
    untraced = [p["wall_s"] for p in own["passes"] if not p["traced"]]
    put("trace.overhead_ratio", stats.median(traced) / stats.median(untraced), "x")
    put("setup.self_s", sp.median_self(own["workload"] + ".setup"), "s")
    put("pass.self_s", sp.median_self(own["workload"] + ".pass"), "s")
    return values, sp


# --- report ------------------------------------------------------------------

def statuses(raw):
    return [q["status"] for s in raw["sections"] for q in s["queries"]]


def span_table(sp):
    rows = {}
    for i, s in enumerate(sp.spans):
        rows.setdefault(s["name"], []).append(i)
    lines = ["  %-34s %6s %12s %12s" % ("span", "count", "median ms", "self ms")]
    for name, ids in rows.items():
        lines.append("  %-34s %6d %12.3f %12.3f" % (
            name, len(ids), stats.median([sp.dur(i) for i in ids]) * 1e3,
            stats.median([sp.self_ns[i] * 1e-6 for i in ids])))
    return lines


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--out", help="append the result to this JSON-lines file")
    args = parser.parse_args()
    started = time.time()

    try:
        build()
        raw = run_driver(args, started)
        failed, attempted, rate = stats.error_rate(statuses(raw))
        if args.trace:
            layer, sp = per_layer(raw)
            metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in layer.items()}
        else:
            e2e, samples = end_to_end(raw)
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}
    except (RunError, OSError, ValueError, KeyError, StopIteration,
            ZeroDivisionError, TypeError) as e:
        sys.stderr.write("perfbench: %s: %s\n" % (type(e).__name__, e))
        return 2

    host, config = raw["host"], raw["config"]
    print("host: " + json.dumps(host, sort_keys=True))
    print("config: " + json.dumps(config, sort_keys=True))
    print("error_rate: %.4f (%d of %d query executions wrong, failed or "
          "rejected)" % (rate, failed, attempted))
    if args.trace:
        print("per-layer metrics (self = median self time of the named span):")
        for name, (v, u, span) in layer.items():
            self_s = sp.median_self(span) if span else None
            print("  %-30s %16.6g %-10s %s" % (
                name, v, u, "" if self_s is None else
                "self %.6g s (%s)" % (self_s, span)))
        print("spans:")
        print("\n".join(span_table(sp)))
    else:
        print("end-to-end metrics:")
        for name, (v, u) in e2e.items():
            print("  %-18s %14.6g %-4s n=%d" % (name, v, u, samples[name]))

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        record = dict(result, workload=args.workload, seed=args.seed,
                      trace=args.trace, host=host, config=config)
        with open(args.out, "a") as f:
            f.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
