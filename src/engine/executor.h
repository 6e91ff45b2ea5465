// Query executor: lowers a logical plan to pipelines for a chosen join
// strategy (Section 5.1.1: every join in the tree is replaced by the join
// under testing) and materialization strategy, then runs them.
#ifndef PJOIN_ENGINE_EXECUTOR_H_
#define PJOIN_ENGINE_EXECUTOR_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "engine/advisor.h"
#include "engine/plan.h"
#include "engine/scan.h"
#include "engine/value.h"
#include "exec/pipeline.h"
#include "join/hash_join.h"
#include "join/radix_join.h"
#include "rewrite/rewrite.h"
#include "util/byte_counter.h"

namespace pjoin {

struct ExecOptions {
  JoinStrategy join_strategy = JoinStrategy::kBHJ;
  bool late_materialization = false;
  int num_threads = 0;  // 0 = PJOIN_THREADS / hardware concurrency

  // Ablation overrides for the radix joins (negative = automatic).
  int radix_bits1 = -1;
  int radix_bits2 = -1;
  bool use_swwcb = true;
  bool use_streaming = true;

  // Per-join strategy override: joins are numbered in post-order (the
  // numbering of Figure 12); entries override the global strategy.
  std::map<int, JoinStrategy> join_overrides;

  // Cost-model knobs for JoinStrategy::kAuto (cache sizes, fallback factor).
  AdvisorOptions advisor;

  // Algebraic rewrite pass applied before lowering (PJOIN_REWRITE, default
  // on). The executor and EXPLAIN resolve the same options, so the rendered
  // plan always matches the executed one. join_overrides keep their
  // post-order ids on the *rewritten* tree; hand-tuned override maps should
  // set `rewrite.enabled = 0` to pin the written plan shape.
  RewriteOptions rewrite;
};

struct QueryStats {
  double seconds = 0;
  uint64_t source_tuples = 0;  // rows read by all table scans
  uint64_t result_rows = 0;
  PhaseTimer phase_timer;
  ByteCounter bytes;
  uint64_t bloom_dropped = 0;      // probe tuples pruned by BRJ filters
  uint64_t partition_bytes = 0;    // final partition storage of all RJs

  // Full observability snapshot: per-pipeline/operator/join actuals, the
  // input to ExplainAnalyzePlan and QueryMetrics::ToJson. metrics.joins()
  // holds one record per join, in post-order.
  QueryMetrics metrics;

  // The paper's TPC-H metric: processed tuples per second, tuples = sum of
  // pipeline-source counts (Section 5.3, footnote 5).
  double Throughput() const {
    return seconds > 0 ? (source_tuples + result_rows) / seconds : 0;
  }
};

// Executes `root` (which must be an Aggregate node) and returns its result.
// A caller-provided pool avoids re-spawning threads across benchmark
// repetitions; pass nullptr to create one per call.
QueryResult ExecuteQuery(const PlanNode& root, const ExecOptions& options,
                         QueryStats* stats = nullptr,
                         ThreadPool* pool = nullptr);

namespace internal {

// Exposed for tests: which base columns does late materialization defer?
std::set<std::string> ComputeLateColumns(const PlanNode& root);

}  // namespace internal

}  // namespace pjoin

#endif  // PJOIN_ENGINE_EXECUTOR_H_
