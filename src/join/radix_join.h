// Radix-partitioned join (RJ) and its Bloom-filtered variant (BRJ) —
// Sections 4.4–4.7 of the paper.
//
// The radix join is a full pipeline breaker and a pipeline starter
// (Algorithm 1): both inputs are materialized through the two-pass
// morsel-driven radix partitioner, then a new pipeline joins the partition
// pairs (Algorithm 2). Each pair gathers its build side into worker-local
// scratch linked into bucket chains (hash_table/bucket_chain.h, in place of
// the paper's robin-hood table) and probes it level-wise in batches.
//
// The BRJ builds a register-blocked Bloom filter over the build keys when
// the build side's partitioning finishes and probes it in the probe pipeline
// *before* partitioning, so non-joining probe tuples are never materialized.
// The adaptive variant samples the filter pass rate and switches the filter
// off when (almost) everything passes.
//
// An advisor-chosen radix join runs guarded (PartitionGuard): once its build
// side is staged the guard answers partition-or-not again. A "not" re-routes
// the staged pass-1 tuples into a chaining hash table, the probe sink runs
// the BHJ probe into per-worker output buffers, and the join source replays
// them — so both answers share one pipeline shape, and the unguarded radix
// path pays one branch per batch or morsel for it.
#ifndef PJOIN_JOIN_RADIX_JOIN_H_
#define PJOIN_JOIN_RADIX_JOIN_H_

#include <memory>

#include "exec/pipeline.h"
#include "filter/adaptive.h"
#include "filter/blocked_bloom.h"
#include "hash_table/bucket_chain.h"
#include "join/emitter.h"
#include "join/hash_join.h"
#include "join/join_types.h"
#include "join/key_spec.h"
#include "partition/radix_partitioner.h"
#include "spill/spill_join.h"

namespace pjoin {

// Partition-or-not hook of a guarded radix join (engine/advisor.h's
// AdvisorGuard). The join asks Partition exactly once, with the staged
// pass-1 build count, before it finalizes either the partitions or a
// chaining hash table over the staged tuples.
class PartitionGuard {
 public:
  virtual ~PartitionGuard() = default;
  // True when the question waits from the build sink's Finish to the probe
  // sink's Prepare, so joins in the probe subtree report actuals first.
  virtual bool deferred() const = 0;
  // False runs the join not partitioned.
  virtual bool Partition(ExecContext& exec, uint64_t staged_build) = 0;
  // Observed probe input and join output counts (cardinality feedback).
  virtual void ProbeCounted(ExecContext& exec, uint64_t rows) = 0;
  virtual void OutputCounted(ExecContext& exec, uint64_t rows) = 0;
};

class RadixJoin {
 public:
  struct Options {
    JoinStrategy strategy = JoinStrategy::kRJ;  // kRJ / kBRJ / kBRJAdaptive
    uint64_t expected_build_tuples = 1 << 20;   // optimizer estimate
    int num_threads = 1;
    // Ablation overrides (negative bits = auto via ChooseRadixBits).
    int bits1 = -1;
    int bits2 = -1;
    bool use_swwcb = true;
    bool use_streaming = true;
  };

  RadixJoin(JoinKind kind, const RowLayout* build_layout,
            std::vector<int> build_keys, const RowLayout* probe_layout,
            std::vector<int> probe_keys, JoinProjection projection,
            const Options& options);

  JoinKind kind() const { return kind_; }
  const Options& options() const { return options_; }

  // Plan-wide join number (post-order, assigned by the executor); -1 when
  // the join runs outside a lowered plan (unit tests).
  int join_id() const { return join_id_; }
  void set_join_id(int id) { join_id_ = id; }
  // The semi-join reducer may only drop probe tuples when an unmatched probe
  // tuple contributes nothing to the result: inner and semi joins, and
  // build-preserving kinds (a dropped tuple could not have marked anything).
  // Anti, outer, and mark joins must see every probe tuple.
  static bool BloomApplicable(JoinKind kind) {
    return kind == JoinKind::kInner || kind == JoinKind::kProbeSemi ||
           kind == JoinKind::kBuildSemi || kind == JoinKind::kBuildAnti ||
           kind == JoinKind::kRightOuter;
  }

  bool bloom_enabled() const {
    return (options_.strategy == JoinStrategy::kBRJ ||
            options_.strategy == JoinStrategy::kBRJAdaptive) &&
           BloomApplicable(kind_);
  }
  bool adaptive() const {
    return options_.strategy == JoinStrategy::kBRJAdaptive;
  }

  RadixPartitioner& build_partitioner() { return *build_part_; }
  RadixPartitioner& probe_partitioner() { return *probe_part_; }
  BlockedBloomFilter& bloom() { return bloom_; }
  AdaptiveFilterController& adaptive_controller() { return adaptive_; }

  // Guarded joins only (set before the build pipeline runs).
  void set_guard(std::unique_ptr<PartitionGuard> guard) {
    guard_ = std::move(guard);
  }
  PartitionGuard* guard() { return guard_.get(); }
  bool build_deferred() const {
    return guard_ != nullptr && guard_->deferred();
  }

  // Terminates the build side. A guarded join asks its guard first; told not
  // to partition, it re-routes the staged tuples into the chaining hash
  // table instead. Otherwise, when the governor denies a fully resident
  // build side, pass-1 pre-partitions are evicted to spill files
  // (largest-resident-first) before Finalize sizes the resident remainder.
  // Called by the build sink's Finish, or the probe sink's Prepare when
  // build_deferred().
  void FinishBuild(ExecContext& exec);

  // False once a guarded join resolved not to partition; hash() is then the
  // engine that runs it, and hash_output(t) holds worker t's probe output.
  bool partitioned() const { return hash_ == nullptr; }
  HashJoin& hash() { return *hash_; }
  RowBuffer& hash_output(int thread_id) { return hash_out_[thread_id]; }
  int num_hash_outputs() const { return static_cast<int>(hash_out_.size()); }

  // Non-null iff FinishBuild decided to spill. Spilled pre-partitions join
  // as extra PartitionJoinSource morsels.
  SpillJoinState* spill() { return spill_.get(); }

  uint64_t SpilledBuildTuples() const {
    return spill_ == nullptr ? 0
                             : spill_->stats.build_tuples_spilled.load(
                                   std::memory_order_relaxed);
  }

  const KeySpec& build_key() const { return build_key_; }
  const KeySpec& probe_key() const { return probe_key_; }
  const JoinProjection& projection() const { return projection_; }
  const RowLayout* build_layout() const { return build_layout_; }
  const RowLayout* probe_layout() const { return probe_layout_; }

  // Audit counters.
  void AddProbeSeen(uint64_t n) {
    probe_seen_.fetch_add(n, std::memory_order_relaxed);
  }
  void AddProbeMatched(uint64_t n) {
    probe_matched_.fetch_add(n, std::memory_order_relaxed);
  }

  // Bloom accounting: `checks` filter lookups of which `dropped` proved
  // absence (batch-wise from the probe sink).
  void AddBloomWindow(uint64_t checks, uint64_t dropped) {
    bloom_checks_.fetch_add(checks, std::memory_order_relaxed);
    bloom_dropped_.fetch_add(dropped, std::memory_order_relaxed);
  }
  uint64_t bloom_dropped() const {
    return bloom_dropped_.load(std::memory_order_relaxed);
  }

  // Per-worker chain-scratch accounting, reported once per worker at Close.
  void ReportWorkerTable(uint64_t grows, uint64_t peak_bytes) {
    ht_grows_.fetch_add(grows, std::memory_order_relaxed);
    uint64_t cur = ht_peak_bytes_.load(std::memory_order_relaxed);
    while (peak_bytes > cur &&
           !ht_peak_bytes_.compare_exchange_weak(cur, peak_bytes,
                                                 std::memory_order_relaxed)) {
    }
  }

  // Observability snapshot (call after the join pipeline finished). Fills
  // kind/strategy/cardinalities plus partitioner and Bloom internals — or the
  // hash table's, when the join ran not partitioned; rows_out is the
  // executor's job (it owns the operator registry).
  JoinMetrics CollectMetrics() const;

 private:
  // Not-partitioned resolution: builds the chaining hash table over the
  // staged [hash][row] tuples (no input re-read) and finishes the BHJ build.
  void RouteStagedToHashTable(ExecContext& exec);

  JoinKind kind_;
  int join_id_ = -1;
  Options options_;
  const RowLayout* build_layout_;
  const RowLayout* probe_layout_;
  KeySpec build_key_;
  KeySpec probe_key_;
  JoinProjection projection_;
  std::unique_ptr<RadixPartitioner> build_part_;
  std::unique_ptr<RadixPartitioner> probe_part_;
  std::unique_ptr<SpillJoinState> spill_;
  BlockedBloomFilter bloom_;
  AdaptiveFilterController adaptive_;
  std::atomic<uint64_t> probe_seen_{0};
  std::atomic<uint64_t> probe_matched_{0};
  std::atomic<uint64_t> bloom_checks_{0};
  std::atomic<uint64_t> bloom_dropped_{0};
  std::atomic<uint64_t> ht_grows_{0};
  std::atomic<uint64_t> ht_peak_bytes_{0};
  std::unique_ptr<PartitionGuard> guard_;
  std::unique_ptr<HashJoin> hash_;     // created only on a not-partitioned run
  std::vector<RowBuffer> hash_out_;    // per worker: BHJ probe output rows
};

// Terminates the build pipeline: partitions the build side and (for BRJ)
// constructs the Bloom filter while finalizing the partitions.
class RadixBuildSink : public Operator {
 public:
  explicit RadixBuildSink(RadixJoin* join) : join_(join) {}

  void Consume(Batch& batch, ThreadContext& ctx) override;
  void Close(ThreadContext& ctx) override;
  void Finish(ExecContext& exec) override;
  const RowLayout* OutputLayout() const override {
    return join_->build_layout();
  }

  const char* MetricsName() const override { return "radix_build"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(join_->join_id());
  }

 private:
  RadixJoin* join_;
};

// Terminates the probe pipeline: Bloom-filters (BRJ) and partitions the
// probe side — or, when the join runs not partitioned, probes the hash table
// and buffers the output for the join source to replay.
class RadixProbeSink : public Operator {
 public:
  explicit RadixProbeSink(RadixJoin* join) : join_(join), hash_out_(join) {}

  void Prepare(ExecContext& exec) override;
  void Open(ThreadContext& ctx) override;
  void Consume(Batch& batch, ThreadContext& ctx) override;
  void Close(ThreadContext& ctx) override;
  void Finish(ExecContext& exec) override;
  const RowLayout* OutputLayout() const override {
    return join_->probe_layout();
  }

  uint64_t tuples_dropped_by_filter() const { return join_->bloom_dropped(); }

  const char* MetricsName() const override { return "radix_probe"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(join_->join_id());
  }

 private:
  // Copies the BHJ probe's output batches into the join's hash_output.
  class HashOutputSink : public Operator {
   public:
    explicit HashOutputSink(RadixJoin* join) : join_(join) {}
    void Consume(Batch& batch, ThreadContext& ctx) override;
    const RowLayout* OutputLayout() const override {
      return join_->projection().output;
    }

   private:
    RadixJoin* join_;
  };

  RadixJoin* join_;
  std::unique_ptr<HashJoinProbe> hash_probe_;  // set iff not partitioned
  HashOutputSink hash_out_;
};

// Starts the join pipeline: partition pairs are morsels; each builds its
// hash table on the fly and probes it, emitting joined tuples downstream.
// A join that ran not partitioned instead replays the buffered BHJ probe
// output, then (build-preserving kinds) the hash-table scan.
class PartitionJoinSource : public Source {
 public:
  explicit PartitionJoinSource(RadixJoin* join) : join_(join) {}

  void Prepare(ExecContext& exec) override;
  void Open(ThreadContext& ctx) override;
  bool ProduceMorsel(Operator& consumer, ThreadContext& ctx) override;
  void Close(ThreadContext& ctx) override;
  void Finish(ExecContext& exec) override;
  const RowLayout* OutputLayout() const override {
    return join_->projection().output;
  }

  const char* MetricsName() const override { return "partition_join"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(join_->join_id());
  }

 private:
  struct WorkerState {
    BucketChainTable table;        // scratch reused across partitions
    std::vector<uint8_t> matched;  // build-index matched flags
    JoinEmitter emitter;
    bool emitter_bound = false;  // emitter binds on the worker's first morsel
  };

  // Joins the build and probe sides of final partition `f`: builds the
  // worker's chains, then probes with the key compare the key shape allows.
  void JoinPartitionPair(WorkerState& ws, int f, ThreadContext& ctx);
  template <typename KeyEq>
  void ProbePartition(WorkerState& ws, int f, const KeyEq& key_equals,
                      ThreadContext& ctx);
  // Not-partitioned morsels: one buffered probe output, then the ht scan.
  bool ReplayHashMorsel(Operator& consumer, ThreadContext& ctx);

  RadixJoin* join_;
  std::atomic<int> cursor_{0};
  std::unique_ptr<WorkerState[]> workers_;
  std::unique_ptr<HashJoinBuildScanSource> ht_scan_;
};

}  // namespace pjoin

#endif  // PJOIN_JOIN_RADIX_JOIN_H_
