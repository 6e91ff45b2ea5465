// Shared helpers for the per-figure benchmark binaries.
#ifndef PJOIN_BENCH_BENCH_COMMON_H_
#define PJOIN_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include "bench_util/harness.h"
#include "bench_util/workloads.h"
#include "engine/executor.h"
#include "stats/column_catalog.h"
#include "tpch/gen.h"
#include "tpch/queries.h"
#include "util/env.h"
#include "util/table_printer.h"

namespace pjoin {
namespace bench {

inline void PrintHeader(const std::string& title, const std::string& paper_ref,
                        const std::string& setup) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("reproduces: %s\n", paper_ref.c_str());
  if (!setup.empty()) std::printf("setup:      %s\n", setup.c_str());
  std::printf("\n");
  std::fflush(stdout);
}

inline ExecOptions Options(JoinStrategy strategy, int threads,
                           bool late_materialization = false) {
  ExecOptions options;
  options.join_strategy = strategy;
  options.num_threads = threads;
  options.late_materialization = late_materialization;
  return options;
}

// The thread counts swept by the scalability figures: 1..hardware, plus the
// hyper-threaded range up to 2x (flagged "HT" in the paper's plots).
inline std::vector<int> ThreadSweep() {
  int hw = DefaultThreads();
  std::vector<int> sweep;
  for (int t = 1; t <= 2 * hw; t *= 2) sweep.push_back(t);
  if (sweep.back() != 2 * hw) sweep.push_back(2 * hw);
  return sweep;
}

// Runs a multi-step TPC-H query to a median-stats measurement; rep_seconds,
// when non-null, receives every rep's wall time (for tail-latency columns).
inline QueryStats MeasureTpch(const TpchQuery& query, const TpchDb& db,
                              const ExecOptions& options, int reps,
                              ThreadPool* pool,
                              std::vector<double>* rep_seconds = nullptr) {
  return MeasureRuns(
      [&](QueryStats* stats) { query.run(db, options, stats, pool); }, reps,
      /*warmup=*/true, rep_seconds);
}

// Paired relative comparison: interleaves A/B runs (A,B,A,B,...) and
// returns the median of the per-round deltas (a - b) / a. Pairing cancels
// the slow host drift that dominates absolute medians for ms-scale queries
// (important for the per-join flip experiments of Figures 1 and 12).
inline double PairedDelta(const std::function<double()>& run_a,
                          const std::function<double()>& run_b, int reps) {
  run_a();  // warm-up
  run_b();
  std::vector<double> deltas;
  deltas.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    double a = run_a();
    double b = run_b();
    deltas.push_back((a - b) / a);
  }
  std::sort(deltas.begin(), deltas.end());
  return deltas[deltas.size() / 2];
}

inline std::string Gts(double tuples_per_sec) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", tuples_per_sec / 1e9);
  return buf;
}

// Machine-readable metrics side-channel: when PJOIN_METRICS_JSON is set,
// appends one QueryMetrics::ToJson line per call, tagged with a caller-chosen
// label, to the named file ("-" = stdout). Lets a plotting script consume the
// per-phase/per-join internals without re-parsing the human tables.
inline void DumpMetrics(const std::string& label, const QueryStats& stats) {
  const char* path = std::getenv("PJOIN_METRICS_JSON");
  if (path == nullptr || path[0] == '\0') return;
  std::FILE* out = std::string(path) == "-" ? stdout : std::fopen(path, "a");
  if (out == nullptr) return;
  std::fprintf(out, "{\"label\":\"%s\",\"metrics\":%s}\n", label.c_str(),
               stats.metrics.ToJson().c_str());
  if (out == stdout) {
    std::fflush(stdout);
  } else {
    std::fclose(out);
  }
}

// Emits the skew estimate the join advisor reads for one table column (its
// statistics histogram's hottest-value share) to the same PJOIN_METRICS_JSON
// side-channel, so plotting scripts can correlate the measured tail
// latencies with the estimated key distribution.
inline void DumpSkewEstimate(const std::string& label, const Table& table,
                             int key_col) {
  const char* path = std::getenv("PJOIN_METRICS_JSON");
  if (path == nullptr || path[0] == '\0') return;
  const TableStats* ts = ColumnCatalog::Global().Get(table);
  if (ts == nullptr) return;
  const ColumnStats& cs = ts->columns[key_col];
  if (!cs.histogram.valid()) return;
  std::FILE* out = std::string(path) == "-" ? stdout : std::fopen(path, "a");
  if (out == nullptr) return;
  std::fprintf(out,
               "{\"label\":\"%s\",\"skew_estimate\":{\"table_rows\":%llu"
               ",\"sample_rows\":%llu,\"distinct_keys\":%llu"
               ",\"top_share\":%.6f}}\n",
               label.c_str(),
               static_cast<unsigned long long>(table.num_rows()),
               static_cast<unsigned long long>(cs.histogram.sample_rows()),
               static_cast<unsigned long long>(cs.distinct),
               cs.histogram.top_share());
  if (out == stdout) {
    std::fflush(stdout);
  } else {
    std::fclose(out);
  }
}

// p99 of per-rep wall times rendered in milliseconds for a table column.
inline std::string P99Ms(const std::vector<double>& rep_seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", Percentile(rep_seconds, 99.0) * 1e3);
  return buf;
}

}  // namespace bench
}  // namespace pjoin

#endif  // PJOIN_BENCH_BENCH_COMMON_H_
