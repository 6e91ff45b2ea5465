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
  // Encoded-segment actuals (storage/encoded_segment.h). `encoded` stays
  // false when the scan ran on plain columns — the default for small tables
  // and every PJOIN_ENCODING=0 run — and the JSON/EXPLAIN layers omit the
  // fields, keeping pre-encoding output byte-identical.
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
  uint64_t max_chain = 0;
  uint64_t resizes = 0;  // the directory is sized exactly once: always 0
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

// Out-of-core activity of one hybrid join. `spilled` stays false when the
// join ran fully resident, and the JSON/EXPLAIN layers omit the record, so
// unbudgeted runs are byte-identical to the pre-spill output.
struct SpillMetrics {
  bool spilled = false;
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

// Runtime skew-defense activity of one radix join. `enabled` stays false
// unless the advisor (or a test) armed the defense, and the JSON/EXPLAIN
// layers omit the record, so undefended runs are byte-identical.
struct SkewDefenseMetrics {
  bool enabled = false;
  uint32_t heavy_hitters = 0;          // keys routed around partitioning
  uint64_t bypass_build_tuples = 0;    // build tuples in the dense-array join
  uint64_t bypass_probe_tuples = 0;    // probe tuples bypassing partitioning
  uint32_t partitions_resplit = 0;     // oversized partitions re-split 16-way
  uint32_t dense_fallbacks = 0;        // same-hash clusters joined densely
};

// Decision record of the cost-based join advisor (JoinStrategy::kAuto).
// `present` stays false for manually chosen strategies so pre-advisor JSON
// and EXPLAIN output are unchanged.
struct AdvisorMetrics {
  bool present = false;
  JoinStrategy choice = JoinStrategy::kBHJ;  // what the advisor picked
  uint64_t est_build_tuples = 0;
  uint64_t est_probe_tuples = 0;
  double cost_bhj = 0;  // modeled memory traffic, bytes
  double cost_rj = 0;
  double cost_brj = 0;
  bool fell_back = false;  // runtime guardrail demoted a radix pick to BHJ
  const char* reason = "";  // static string from the advisor
  // Skew estimate from the build-side sample (omitted from JSON when the
  // sampling pass was disabled, keeping pre-sampler output stable).
  bool skew_sampled = false;
  double est_top_share = 0;
  double est_max_partition_share = 0;
  double est_key_payload_corr = 0;
  bool skew_defense = false;  // partitioned pick armed the runtime defense
};

// Mid-query re-planning record of one advisor-chosen join
// (PJOIN_REPLAN_QERROR > 0). `enabled` stays false when the re-planner is
// off — the default — and the JSON/EXPLAIN layers omit the record.
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
// (the numbering of Figure 12 and ExecOptions::join_overrides).
struct JoinMetrics {
  int join_id = 0;
  JoinKind kind = JoinKind::kInner;
  JoinStrategy strategy = JoinStrategy::kBHJ;
  uint64_t build_tuples = 0;
  uint64_t probe_tuples = 0;   // tuples entering the probe side (pre-filter)
  uint64_t probe_matched = 0;  // probe tuples with at least one partner
  uint64_t rows_out = 0;       // tuples the join emitted downstream
  bool has_hash_table = false;
  HashTableMetrics hash_table;
  bool has_partitions = false;
  PartitionerMetrics build_side;
  PartitionerMetrics probe_side;
  BloomMetrics bloom;
  uint64_t partition_ht_grows = 0;      // robin-hood segment regrowths
  uint64_t partition_ht_peak_bytes = 0; // largest per-partition table
  SpillMetrics spill;                   // only meaningful when spilled
  SkewDefenseMetrics skew;              // only meaningful when defense armed
  AdvisorMetrics advisor;               // only meaningful under kAuto
  ReplanMetrics replan;                 // only meaningful when re-planning on
  // Key pairs this join compared as dictionary codes (engine/coded_keys.h).
  // Zero for plain joins; the JSON/EXPLAIN fields are omitted then.
  uint32_t coded_key_pairs = 0;
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

  void AddScan(ScanMetrics scan) { scans_.push_back(std::move(scan)); }
  void AddJoin(JoinMetrics join) { joins_.push_back(std::move(join)); }

  // Query-level summary filled by the executor after the run.
  void SetSummary(double seconds, uint64_t source_tuples, uint64_t result_rows,
                  const PhaseTimer& timer, const ByteCounter& bytes);

  // Memory-governor snapshot (executor, after the run). The JSON section is
  // emitted only when a budget was set, keeping unbudgeted output stable.
  void SetGovernor(uint64_t budget, uint64_t high_water, uint64_t denials) {
    governor_budget_ = budget;
    governor_high_water_ = high_water;
    governor_denials_ = denials;
  }
  uint64_t governor_budget() const { return governor_budget_; }
  uint64_t governor_high_water() const { return governor_high_water_; }
  uint64_t governor_denials() const { return governor_denials_; }

  // Server-mode per-query record (src/server/): admission identity, the
  // fair-share memory grant, spill-pressure denials and queue wait. Set by
  // QueryServer after the run; the JSON section and the EXPLAIN ANALYZE
  // line are emitted only when present, so standalone-run output is
  // byte-identical to the pre-server engine.
  void SetServer(uint64_t query_id, uint64_t session_id, std::string state,
                 uint64_t granted_bytes, uint64_t spill_pressure,
                 double queue_seconds) {
    server_present_ = true;
    server_query_id_ = query_id;
    server_session_id_ = session_id;
    server_state_ = std::move(state);
    server_granted_bytes_ = granted_bytes;
    server_spill_pressure_ = spill_pressure;
    server_queue_seconds_ = queue_seconds;
  }
  bool server_present() const { return server_present_; }
  uint64_t server_query_id() const { return server_query_id_; }
  uint64_t server_session_id() const { return server_session_id_; }
  const std::string& server_state() const { return server_state_; }
  uint64_t server_granted_bytes() const { return server_granted_bytes_; }
  uint64_t server_spill_pressure() const { return server_spill_pressure_; }
  double server_queue_seconds() const { return server_queue_seconds_; }

  // Dispatched SIMD kernel tier ("scalar"|"avx2"|"avx512"), set by the
  // executor so benches can attribute kernel-level wins. Deterministic on a
  // given host+environment, so it is safe in the stable JSON.
  void SetSimdTier(std::string tier) { simd_tier_ = std::move(tier); }
  const std::string& simd_tier() const { return simd_tier_; }

  // Statistics-catalog snapshot for this query's base tables (executor,
  // after the run). The JSON section is emitted only when set — i.e. when
  // PJOIN_STATS is enabled — keeping stats-off output byte-identical.
  void SetStats(uint64_t tables, uint64_t columns, int buckets) {
    stats_present_ = true;
    stats_tables_ = tables;
    stats_columns_ = columns;
    stats_buckets_ = buckets;
  }
  bool stats_present() const { return stats_present_; }
  uint64_t stats_tables() const { return stats_tables_; }
  uint64_t stats_columns() const { return stats_columns_; }
  int stats_buckets() const { return stats_buckets_; }

  // Encoded-execution rollup (executor, after the run): how many scans ran
  // on codes, how many join key pairs compared codes, the decode work done,
  // the scan read traffic with codes vs the plain-width counterfactual, and
  // the logical vs physical spill traffic. Set only when encoding actually
  // engaged somewhere in the query, so plain runs — and every
  // PJOIN_ENCODING=0 run — emit byte-identical JSON.
  void SetEncoding(uint64_t scans_encoded, uint64_t coded_join_pairs,
                   uint64_t values_decoded, uint64_t codes_emitted,
                   uint64_t scan_read_bytes, uint64_t plain_read_bytes,
                   uint64_t spill_bytes_logical,
                   uint64_t spill_bytes_physical) {
    encoding_present_ = true;
    encoding_scans_encoded_ = scans_encoded;
    encoding_coded_join_pairs_ = coded_join_pairs;
    encoding_values_decoded_ = values_decoded;
    encoding_codes_emitted_ = codes_emitted;
    encoding_scan_read_bytes_ = scan_read_bytes;
    encoding_plain_read_bytes_ = plain_read_bytes;
    encoding_spill_bytes_logical_ = spill_bytes_logical;
    encoding_spill_bytes_physical_ = spill_bytes_physical;
  }
  bool encoding_present() const { return encoding_present_; }
  uint64_t encoding_scans_encoded() const { return encoding_scans_encoded_; }
  uint64_t encoding_coded_join_pairs() const {
    return encoding_coded_join_pairs_;
  }
  uint64_t encoding_values_decoded() const { return encoding_values_decoded_; }
  uint64_t encoding_codes_emitted() const { return encoding_codes_emitted_; }
  uint64_t encoding_scan_read_bytes() const {
    return encoding_scan_read_bytes_;
  }
  uint64_t encoding_plain_read_bytes() const {
    return encoding_plain_read_bytes_;
  }
  uint64_t encoding_spill_bytes_logical() const {
    return encoding_spill_bytes_logical_;
  }
  uint64_t encoding_spill_bytes_physical() const {
    return encoding_spill_bytes_physical_;
  }

  // Rewrite-pass record (executor, after the run): the fired rules, the
  // chosen join order, and what the planted Bloom filters dropped. The JSON
  // section and the EXPLAIN `rewrite:` line are emitted only when the pass
  // actually changed the plan, so untouched plans — and every PJOIN_REWRITE=0
  // run — stay byte-identical to the pre-rewrite engine.
  void SetRewrite(std::string rules, std::string order, int filters_pulled,
                  int filters_pushed, int joins_reordered, int blooms_planted,
                  uint64_t bloom_dropped) {
    rewrite_present_ = true;
    rewrite_rules_ = std::move(rules);
    rewrite_order_ = std::move(order);
    rewrite_filters_pulled_ = filters_pulled;
    rewrite_filters_pushed_ = filters_pushed;
    rewrite_joins_reordered_ = joins_reordered;
    rewrite_blooms_planted_ = blooms_planted;
    rewrite_bloom_dropped_ = bloom_dropped;
  }
  bool rewrite_present() const { return rewrite_present_; }
  const std::string& rewrite_rules() const { return rewrite_rules_; }
  const std::string& rewrite_order() const { return rewrite_order_; }
  int rewrite_filters_pulled() const { return rewrite_filters_pulled_; }
  int rewrite_filters_pushed() const { return rewrite_filters_pushed_; }
  int rewrite_joins_reordered() const { return rewrite_joins_reordered_; }
  int rewrite_blooms_planted() const { return rewrite_blooms_planted_; }
  uint64_t rewrite_bloom_dropped() const { return rewrite_bloom_dropped_; }

  // --- accessors -----------------------------------------------------------

  const std::deque<PipelineMetrics>& pipelines() const { return pipelines_; }
  const std::deque<OperatorMetrics>& operators() const { return operators_; }
  const std::vector<ScanMetrics>& scans() const { return scans_; }
  const std::vector<JoinMetrics>& joins() const { return joins_; }

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

  // Stable JSON document: object keys in fixed order, doubles printed with
  // %.6f. With include_timings=false all wall/cpu-time fields are omitted;
  // the remaining counters depend only on plan, data, and morsel scheduling
  // (morsels_per_worker is a race between workers), so single-threaded
  // output is byte-deterministic — that form is what tests snapshot.
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
  uint64_t governor_budget_ = 0;
  uint64_t governor_high_water_ = 0;
  uint64_t governor_denials_ = 0;
  bool server_present_ = false;
  uint64_t server_query_id_ = 0;
  uint64_t server_session_id_ = 0;
  std::string server_state_;
  uint64_t server_granted_bytes_ = 0;
  uint64_t server_spill_pressure_ = 0;
  double server_queue_seconds_ = 0;
  std::string simd_tier_;
  bool stats_present_ = false;
  uint64_t stats_tables_ = 0;
  uint64_t stats_columns_ = 0;
  int stats_buckets_ = 0;
  bool encoding_present_ = false;
  uint64_t encoding_scans_encoded_ = 0;
  uint64_t encoding_coded_join_pairs_ = 0;
  uint64_t encoding_values_decoded_ = 0;
  uint64_t encoding_codes_emitted_ = 0;
  uint64_t encoding_scan_read_bytes_ = 0;
  uint64_t encoding_plain_read_bytes_ = 0;
  uint64_t encoding_spill_bytes_logical_ = 0;
  uint64_t encoding_spill_bytes_physical_ = 0;
  bool rewrite_present_ = false;
  std::string rewrite_rules_;
  std::string rewrite_order_;
  int rewrite_filters_pulled_ = 0;
  int rewrite_filters_pushed_ = 0;
  int rewrite_joins_reordered_ = 0;
  int rewrite_blooms_planted_ = 0;
  uint64_t rewrite_bloom_dropped_ = 0;
  PhaseTimer timer_;
  ByteCounter bytes_;
};

}  // namespace pjoin

#endif  // PJOIN_EXEC_QUERY_METRICS_H_
