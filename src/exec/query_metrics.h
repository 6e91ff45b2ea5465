// Query-wide observability: per-pipeline and per-operator statistics.
//
// The paper's entire argument rests on inside-the-system measurement — which
// join phase pays for partitioning, how many probe tuples the Bloom filter
// prunes, where the morsels go. QueryMetrics is the registry every execution
// component reports into:
//   * operator counters (rows/batches in and out) live in thread-local,
//     cache-line-padded slots so the hot paths stay contention-free; they are
//     merged on demand after the pipelines finish,
//   * pipeline records carry wall time, per-worker busy time, and the morsel
//     count each worker claimed (the skew-robustness signal of Section 4.5),
//   * join records aggregate the strategy-specific internals: chaining-hash-
//     table shape for the BHJ, radix-partitioner fan-out/SWWCB traffic for
//     the RJ, and Bloom-filter pass rates plus the adaptive on/off decision
//     for the BRJ.
// The registry renders to a stable JSON document (ToJson) consumed by the
// benches and to the EXPLAIN ANALYZE annotations in engine/explain.
#ifndef PJOIN_EXEC_QUERY_METRICS_H_
#define PJOIN_EXEC_QUERY_METRICS_H_

#include <cstdint>
#include <deque>
#include <optional>
#include <string>
#include <vector>

#include "join/join_types.h"
#include "util/byte_counter.h"

namespace pjoin {

// One worker's counters for one operator. Padded to a cache line so two
// workers bumping their own slots never share a line (false sharing would
// show up directly in the bandwidth profiles this layer exists to produce).
struct alignas(64) OperatorSlot {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t batches_in = 0;
  uint64_t batches_out = 0;
};
static_assert(sizeof(OperatorSlot) == 64);

// Merged view of an operator's slots.
struct OperatorTotals {
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;
  uint64_t batches_in = 0;
  uint64_t batches_out = 0;
};

// Per-operator record: identity plus one padded slot per worker. Instances
// are owned by QueryMetrics (deque: registration never invalidates the
// pointers operators hold).
class OperatorMetrics {
 public:
  OperatorMetrics(std::string name, std::string detail, int pipeline_index,
                  int num_threads)
      : name_(std::move(name)),
        detail_(std::move(detail)),
        pipeline_index_(pipeline_index),
        slots_(num_threads) {}

  const std::string& name() const { return name_; }
  const std::string& detail() const { return detail_; }
  int pipeline_index() const { return pipeline_index_; }

  // Hot-path increments; `thread_id` indexes the worker's private slot.
  void AddIn(int thread_id, uint64_t rows) {
    OperatorSlot& s = slots_[thread_id];
    s.rows_in += rows;
    s.batches_in += 1;
  }
  void AddOut(int thread_id, uint64_t rows, uint64_t batches) {
    OperatorSlot& s = slots_[thread_id];
    s.rows_out += rows;
    s.batches_out += batches;
  }

  const std::vector<OperatorSlot>& slots() const { return slots_; }

  OperatorTotals Totals() const {
    OperatorTotals t;
    for (const OperatorSlot& s : slots_) {
      t.rows_in += s.rows_in;
      t.rows_out += s.rows_out;
      t.batches_in += s.batches_in;
      t.batches_out += s.batches_out;
    }
    return t;
  }

 private:
  std::string name_;
  std::string detail_;
  int pipeline_index_;
  std::vector<OperatorSlot> slots_;

  friend class QueryMetrics;  // FollowStep renumbers pipeline_index_
};

// Per-pipeline record. Worker-indexed vectors are sized at registration;
// each worker writes only its own element during the parallel region.
struct PipelineMetrics {
  std::string label;
  JoinPhase phase = JoinPhase::kProbePipeline;
  double wall_seconds = 0;    // the parallel region
  double finish_seconds = 0;  // source + operator Finish, after the region
  std::vector<uint64_t> morsels_per_worker;
  std::vector<double> worker_seconds;  // per-worker busy time

  uint64_t total_morsels() const {
    uint64_t n = 0;
    for (uint64_t m : morsels_per_worker) n += m;
    return n;
  }
  double cpu_seconds() const {
    double s = 0;
    for (double w : worker_seconds) s += w;
    return s;
  }
};

// Table-scan actuals, recorded in lowering order (build side before probe
// side), which is the traversal order EXPLAIN ANALYZE replays.
struct ScanMetrics {
  std::string table;
  uint64_t rows_scanned = 0;
  uint64_t rows_passed = 0;
  // Encoded-segment actuals (stats/column_catalog.h). `encoded` is false
  // when the scan ran on plain columns — the default for small tables and
  // every PJOIN_ENCODING=0 run — and the counters below are zero then.
  bool encoded = false;
  uint64_t enc_read_width = 0;    // bytes read per scanned row, with codes
  uint64_t plain_read_width = 0;  // same, had every column stayed plain
  uint64_t values_decoded = 0;    // dict gathers + FOR decodes performed
  uint64_t codes_emitted = 0;     // join-key fields emitted as codes
};

// BHJ chaining-hash-table shape after Build().
struct HashTableMetrics {
  uint64_t build_tuples = 0;
  uint64_t directory_slots = 0;
  uint64_t directory_bytes = 0;
  uint64_t materialized_bytes = 0;
  uint64_t chained_entries = 0;  // entries placed behind another (collisions)
};

// One side of a radix join after Finalize().
struct PartitionerMetrics {
  int bits1 = 0;
  int bits2 = 0;
  int num_partitions = 0;
  uint64_t tuples = 0;
  uint64_t output_bytes = 0;
  uint64_t swwcb_flushes = 0;   // write-combine block flushes (both passes)
  uint64_t streamed_bytes = 0;  // bytes moved with non-temporal stores
  uint64_t max_partition_tuples = 0;
  uint64_t min_partition_tuples = 0;
};

// Bloom semi-join-reducer behavior during the probe pipeline.
struct BloomMetrics {
  bool applicable = false;  // strategy + join kind allow a filter at all
  uint64_t size_bytes = 0;
  uint64_t num_blocks = 0;
  uint64_t build_keys = 0;
  uint64_t probes = 0;    // filter membership checks
  uint64_t negatives = 0; // probe tuples dropped before partitioning
  bool adaptive = false;
  bool enabled_at_end = false;    // the adaptive controller's final decision
  uint64_t adaptive_samples = 0;  // checks seen by the controller

  double pass_rate() const {
    return probes > 0
               ? static_cast<double>(probes - negatives) / probes
               : 0.0;
  }
};

// Out-of-core activity of one hybrid join; all zero when the join ran fully
// resident (partitions_spilled == 0).
struct SpillMetrics {
  uint32_t partitions_spilled = 0;
  uint32_t partitions_total = 0;  // fan-out the residency choice ranged over
  uint64_t build_tuples_spilled = 0;
  uint64_t probe_tuples_spilled = 0;
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t max_recursion_depth = 0;  // 1 = joined on first re-read
  // Compressed spill pages (spill/spill_page.h). bytes_written/bytes_read
  // above stay logical so spill accounting is comparable across modes; the
  // file-level savings surface in the query's "encoding" section, not here.
  bool compressed = false;
  uint64_t physical_bytes_written = 0;
  uint64_t physical_bytes_read = 0;
};

// Decision record of the cost-based join advisor (JoinStrategy::kAuto).
// `present` records that the join was advised at all: manually chosen
// strategies have no decision, and the JSON omits the record for them.
struct AdvisorMetrics {
  bool present = false;
  JoinStrategy choice = JoinStrategy::kBHJ;  // what the advisor picked
  uint64_t est_build_tuples = 0;
  uint64_t est_probe_tuples = 0;
  double cost_bhj = 0;  // single-threaded ns; 0 when not costed
  double cost_rj = 0;
  double cost_brj = 0;
  double calibration_ms = 0;  // profile calibration this decision paid for
  bool fell_back = false;  // runtime guardrail demoted a radix pick to BHJ
  const char* reason = "";  // static string from the advisor
  // Skew estimate from the build key's histogram (zero without statistics).
  bool skew_sampled = false;
  double est_top_share = 0;
  double est_max_partition_share = 0;
};

// Mid-query re-planning record of one advisor-chosen join
// (PJOIN_REPLAN_QERROR > 0). `enabled` is false when the re-planner is off —
// the default — and the rest of the record keeps its initial values.
struct ReplanMetrics {
  bool enabled = false;    // decision was deferred to the probe phase
  bool triggered = false;  // observed q-error crossed the threshold
  bool switched = false;   // final strategy differs from the plan-time pick
  double qerror_build = 1.0;  // staged build vs plan-time estimate
  double qerror_probe = 1.0;  // feedback-corrected probe vs estimate
  uint64_t staged_build_tuples = 0;
  uint64_t corrected_probe_tuples = 0;
  // Re-costed strategy surface (only meaningful when triggered).
  double recost_bhj = 0;
  double recost_rj = 0;
  double recost_brj = 0;
  JoinStrategy final_choice = JoinStrategy::kBHJ;  // what actually ran
};

// q-error of an estimate against an observation (>= 1; symmetric in
// over/underestimation). Zero-valued sides count as 1 tuple so empty joins
// do not divide by zero.
inline double EstimateQError(uint64_t est, uint64_t actual) {
  const double e = static_cast<double>(est == 0 ? 1 : est);
  const double a = static_cast<double>(actual == 0 ? 1 : actual);
  return e > a ? e / a : a / e;
}

// A plan-time estimate at or beyond this q-error counts as a mispredict in
// the JSON/EXPLAIN quality fields.
constexpr double kMispredictQError = 2.0;

// Everything one join reports, keyed by the executor's post-order join id
// (the numbering of Figure 12 and ExecOptions::join_overrides). This is the
// per-join measurement record behind the paper's per-join analyses: Figure 1
// (build/probe bytes per TPC-H join), Figure 2 (tuple-size and join-partner
// histograms), Figure 13 (annotated join tree), and Table 5 (workload
// survey).
struct JoinMetrics {
  int join_id = 0;
  JoinKind kind = JoinKind::kInner;
  JoinStrategy strategy = JoinStrategy::kBHJ;  // the engine that ran
  uint64_t build_tuples = 0;
  uint64_t probe_tuples = 0;   // tuples entering the probe side (pre-filter)
  uint64_t probe_matched = 0;  // probe tuples with at least one partner
  uint64_t rows_out = 0;       // tuples the join emitted downstream
  uint32_t build_width = 0;    // materialized build row bytes
  uint32_t probe_width = 0;    // probe row bytes
  bool has_hash_table = false;
  HashTableMetrics hash_table;
  bool has_partitions = false;
  PartitionerMetrics build_side;
  PartitionerMetrics probe_side;
  BloomMetrics bloom;
  uint64_t partition_ht_grows = 0;      // partition-join scratch regrowths
  uint64_t partition_ht_peak_bytes = 0; // largest worker chain scratch
  SpillMetrics spill;
  AdvisorMetrics advisor;
  ReplanMetrics replan;
  // Key pairs this join compared as dictionary codes (engine/coded_keys.h).
  uint32_t coded_key_pairs = 0;
  // Wall plus finish time of the pipelines the join's operators run in: its
  // build pipeline, its probe pipeline (shared with the operators pipelined
  // around the probe) and, for a radix join, its partition-join pipeline.
  double seconds = 0;

  uint64_t build_bytes() const { return build_tuples * build_width; }
  uint64_t probe_bytes() const { return probe_tuples * probe_width; }
  double match_fraction() const {
    return probe_tuples > 0
               ? static_cast<double>(probe_matched) / probe_tuples
               : 0.0;
  }
};

// Memory-governor snapshot; zero when no budget was set.
struct GovernorMetrics {
  uint64_t budget = 0;
  uint64_t high_water = 0;
  uint64_t denials = 0;
};

// Server-mode record (src/server/): admission identity, the fair-share
// memory grant, spill-pressure denials and queue wait.
struct ServerMetrics {
  uint64_t query_id = 0;
  uint64_t session_id = 0;
  std::string state;
  uint64_t granted_bytes = 0;
  uint64_t spill_pressure = 0;
  double queue_seconds = 0;
};

// Column-catalog snapshot for the query's non-empty base tables.
struct StatsMetrics {
  uint64_t tables = 0;
  uint64_t columns = 0;
};

// Rewrite-pass record: the fired rules, the chosen join order, and what the
// planted Bloom filters dropped. Empty when the pass left the plan as
// written (no rule fired, or PJOIN_REWRITE=0).
struct RewriteMetrics {
  std::string rules;
  std::string order;
  int filters_pulled = 0;
  int filters_pushed = 0;
  int joins_reordered = 0;
  int blooms_planted = 0;
  uint64_t bloom_dropped = 0;
};

// Encoded-execution rollup: how many scans ran on codes, how many join key
// pairs compared codes, the decode work done, the scan read traffic with
// codes vs the plain-width counterfactual, and the logical vs physical
// traffic of compressed spills. Derived from the scan and join records.
struct EncodingMetrics {
  uint64_t scans_encoded = 0;
  uint64_t coded_join_pairs = 0;
  uint64_t values_decoded = 0;
  uint64_t codes_emitted = 0;
  uint64_t scan_read_bytes = 0;
  uint64_t plain_read_bytes = 0;
  uint64_t spill_bytes_logical = 0;
  uint64_t spill_bytes_physical = 0;
};

// The query-wide registry. One instance lives in ExecContext; the executor
// copies it into QueryStats after the pipelines finish, so benches and tests
// can inspect a completed run without holding the execution alive.
class QueryMetrics {
 public:
  explicit QueryMetrics(int num_threads = 1) : num_threads_(num_threads) {}

  int num_threads() const { return num_threads_; }

  // --- registration (single-threaded, before the workers start) -----------

  // Starts a pipeline record and returns it; the pointer stays valid for the
  // lifetime of this QueryMetrics (deque storage).
  PipelineMetrics* StartPipeline(const std::string& label, JoinPhase phase);

  // Registers an operator (or source) under the most recent pipeline.
  OperatorMetrics* RegisterOperator(const std::string& name,
                                    const std::string& detail);

  // --- after the run -------------------------------------------------------

  void AddScan(ScanMetrics scan) { scans_.push_back(std::move(scan)); }
  // Replaces the join records; they are kept sorted by join_id.
  void SetJoins(std::vector<JoinMetrics> joins);
  // Makes this record the continuation of `earlier`, the record of the
  // query's previous steps: their pipelines, operators and joins go first,
  // and this run's operator pipeline indices and join ids shift past them
  // (join ids by `join_offset`, the joins the earlier steps ran).
  void FollowStep(const QueryMetrics& earlier, int join_offset);

  // Query-level summary filled by the executor after the run.
  void SetSummary(double seconds, uint64_t source_tuples, uint64_t result_rows,
                  const PhaseTimer& timer, const ByteCounter& bytes);

  // Query-level sections, filled in place after the run: the executor sets
  // governor, stats, rewrite and simd_tier; QueryServer sets server.
  GovernorMetrics governor;
  StatsMetrics stats;
  RewriteMetrics rewrite;
  // Dispatched SIMD kernel tier ("scalar"|"avx2"|"avx512"), so benches can
  // attribute kernel-level wins. Deterministic on a given host+environment.
  std::string simd_tier;
  // Set only for runs submitted through QueryServer.
  std::optional<ServerMetrics> server;

  // --- accessors -----------------------------------------------------------

  const std::deque<PipelineMetrics>& pipelines() const { return pipelines_; }
  const std::deque<OperatorMetrics>& operators() const { return operators_; }
  const std::vector<ScanMetrics>& scans() const { return scans_; }
  const std::vector<JoinMetrics>& joins() const { return joins_; }
  EncodingMetrics encoding() const;
  // Advised joins whose decision calibrated the cost profile, and the wall
  // time those calibrations took (engine/cost_profile.h).
  int calibrated_joins() const;
  double calibration_ms() const;

  // Join record by executor join id; null when the id was never collected.
  const JoinMetrics* FindJoin(int join_id) const;

  // Sum of rows_out over operators named `name` (e.g. "hash_join_probe").
  OperatorTotals TotalsFor(const std::string& name) const;

  double seconds() const { return seconds_; }
  uint64_t source_tuples() const { return source_tuples_; }
  uint64_t result_rows() const { return result_rows_; }
  const PhaseTimer& phase_timer() const { return timer_; }
  const ByteCounter& phase_bytes() const { return bytes_; }

  // --- export --------------------------------------------------------------

  // Stable JSON document with one fixed schema: object keys in fixed order,
  // every section present (zero-valued when inactive) except a join's
  // "advisor" (only advised joins have one) and "server" (only server runs),
  // doubles printed with %.6f. With include_timings=false all wall/cpu-time
  // fields are omitted; the remaining counters depend only on plan, data,
  // and morsel scheduling (morsels_per_worker is a race between workers), so
  // single-threaded output is byte-deterministic — that form is what tests
  // snapshot.
  std::string ToJson(bool include_timings = true) const;

 private:
  int num_threads_;
  std::deque<PipelineMetrics> pipelines_;
  std::deque<OperatorMetrics> operators_;
  std::vector<ScanMetrics> scans_;
  std::vector<JoinMetrics> joins_;

  double seconds_ = 0;
  uint64_t source_tuples_ = 0;
  uint64_t result_rows_ = 0;
  PhaseTimer timer_;
  ByteCounter bytes_;
};

}  // namespace pjoin

#endif  // PJOIN_EXEC_QUERY_METRICS_H_
