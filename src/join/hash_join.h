// Buffered non-partitioned hash join (BHJ) — Section 4.3 of the paper.
//
// The build pipeline materializes build tuples into worker-local buffers and
// bulk-builds a global chaining hash table whose directory slots carry
// 16-bit Bloom tags (the tagged-pointer semi-join reducer of Leis et al.).
// The build finishes with a parallel directory build: zero the directory (a
// large one in per-worker slices), insert with prefetched CAS pushes, and
// count chained entries from the pushes themselves, so no pass over the
// table follows the query. The probe side stays fully pipelined: batches act
// as the relaxed-operator-fusion staging buffers, and each batch is probed
// in stages — hash, prefetch the directory slots, gather and test the Bloom
// tags, prefetch the surviving chain heads, then walk all surviving chains
// one entry per round, prefetching each next entry. This is the
// software-prefetching scheme that keeps the BHJ's performance flat even
// when the hash table exceeds the LLC. Only a spilling (hybrid) join probes
// tuple by tuple, since it routes each tuple to the resident table or a
// spill partition.
#ifndef PJOIN_JOIN_HASH_JOIN_H_
#define PJOIN_JOIN_HASH_JOIN_H_

#include <memory>

#include "exec/pipeline.h"
#include "hash_table/chaining_ht.h"
#include "join/emitter.h"
#include "join/join_types.h"
#include "join/key_spec.h"
#include "spill/spill_join.h"

namespace pjoin {

// Shared state between the build sink, probe operator, and (for
// build-preserving kinds) the post-probe build scan source.
class HashJoin {
 public:
  // `build_layout`/`probe_layout`: tuple formats entering each side;
  // `build_keys`/`probe_keys`: key field indices; `projection`: output
  // mapping (its `build` layout must equal `build_layout`, etc.).
  HashJoin(JoinKind kind, const RowLayout* build_layout,
           std::vector<int> build_keys, const RowLayout* probe_layout,
           std::vector<int> probe_keys, JoinProjection projection);

  JoinKind kind() const { return kind_; }
  ChainingHashTable& table() { return *table_; }

  // Hybrid-hash spilling: the fan-out uses the LOW 6 hash bits, which the
  // chaining table leaves unused (directory = high bits, tag = bits 16..20),
  // so resident-table probes and spill routing never interfere.
  static constexpr int kSpillFanoutBits = 6;
  static constexpr int kSpillFanout = 1 << kSpillFanoutBits;

  // Terminates the build phase: builds the table fully in memory when the
  // governor admits it, otherwise evicts the coldest fan-out partitions to
  // spill files and builds the table over the resident rest.
  void FinishBuild(ExecContext& exec);

  // Non-null iff FinishBuild decided to spill.
  SpillJoinState* spill() { return spill_.get(); }

  // Worker-local holding buffers (build-row layout) for build rows that the
  // spilled-pair processing decides to emit; replayed by the build scan
  // source. Only allocated for build-preserving kinds.
  RowBuffer& spill_build_out(int thread_id) {
    return spill_build_out_[thread_id];
  }
  bool HasSpillBuildOut() const { return !spill_build_out_.empty(); }

  // Plan-wide join number (post-order, assigned by the executor); -1 when
  // the join runs outside a lowered plan (unit tests).
  int join_id() const { return join_id_; }
  void set_join_id(int id) { join_id_ = id; }

  // Observability snapshot (call after the probe pipeline finished). Fills
  // kind/strategy/cardinalities plus hash-table internals; rows_out is the
  // executor's job (it owns the operator registry).
  JoinMetrics CollectMetrics() const;

  // kRightOuter only: matched pairs cannot flow down the probe pipeline
  // (the downstream operators hang off the post-probe build scan), so the
  // probe phase materializes them here — in output-row format — and the
  // build scan source replays them. Worker-indexed, created on demand.
  RowBuffer& pair_buffer(int thread_id);
  bool HasPairBuffers() const { return !pair_buffers_.empty(); }

  // Audit counters (updated batch-wise by the probe operator).
  void AddProbeStats(uint64_t seen, uint64_t matched) {
    probe_seen_.fetch_add(seen, std::memory_order_relaxed);
    probe_matched_.fetch_add(matched, std::memory_order_relaxed);
  }
  const KeySpec& build_key() const { return build_key_; }
  const KeySpec& probe_key() const { return probe_key_; }
  const JoinProjection& projection() const { return projection_; }
  const RowLayout* build_layout() const { return build_layout_; }

  uint64_t SpilledBuildTuples() const {
    return spill_ == nullptr ? 0
                             : spill_->stats.build_tuples_spilled.load(
                                   std::memory_order_relaxed);
  }

 private:
  JoinKind kind_;
  int join_id_ = -1;
  const RowLayout* build_layout_;
  KeySpec build_key_;
  KeySpec probe_key_;
  JoinProjection projection_;
  std::unique_ptr<ChainingHashTable> table_;
  std::unique_ptr<SpillJoinState> spill_;
  std::vector<RowBuffer> spill_build_out_;  // build rows from spilled pairs
  std::vector<RowBuffer> pair_buffers_;     // kRightOuter matched pairs
  std::atomic<uint64_t> probe_seen_{0};
  std::atomic<uint64_t> probe_matched_{0};
};

// Pipeline breaker terminating the build pipeline.
class HashJoinBuildSink : public Operator {
 public:
  explicit HashJoinBuildSink(HashJoin* join) : join_(join) {}

  void Consume(Batch& batch, ThreadContext& ctx) override;
  void Finish(ExecContext& exec) override;
  const RowLayout* OutputLayout() const override {
    return join_->build_layout();
  }

  const char* MetricsName() const override { return "hash_join_build"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(join_->join_id());
  }

 private:
  HashJoin* join_;
};

// In-pipeline probe operator. For probe-preserving kinds it emits joined
// batches downstream; for build-preserving kinds it only sets matched flags
// (a HashJoinBuildScanSource then starts the next pipeline).
class HashJoinProbe : public Operator {
 public:
  explicit HashJoinProbe(HashJoin* join) : join_(join) {}

  void Prepare(ExecContext& exec) override;
  void Open(ThreadContext& ctx) override;
  void Consume(Batch& batch, ThreadContext& ctx) override;
  void Close(ThreadContext& ctx) override;
  const RowLayout* OutputLayout() const override {
    return join_->projection().output;
  }

  const char* MetricsName() const override { return "hash_join_probe"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(join_->join_id());
  }

 private:
  // Probes one hashed batch, comparing keys with `key_equals` (the compare
  // WithKeyEquals picks for the key shape).
  template <typename KeyEq>
  void Probe(const Batch& batch, const uint64_t* hashes,
             const KeyEq& key_equals, ThreadContext& ctx);

  HashJoin* join_;
  std::vector<JoinEmitter> emitters_;  // per worker
  int num_workers_ = 0;
};

// Post-probe source for build-preserving kinds: scans all hash-table entries
// and emits matched (kBuildSemi) or unmatched (kBuildAnti, kRightOuter)
// build rows.
class HashJoinBuildScanSource : public Source {
 public:
  explicit HashJoinBuildScanSource(HashJoin* join) : join_(join) {}

  void Prepare(ExecContext& exec) override;
  bool ProduceMorsel(Operator& consumer, ThreadContext& ctx) override;
  const RowLayout* OutputLayout() const override {
    return join_->projection().output;
  }

  const char* MetricsName() const override { return "ht_scan"; }
  std::string MetricsDetail() const override {
    return "j" + std::to_string(join_->join_id());
  }

 private:
  HashJoin* join_;
  std::atomic<int> cursor_{0};
  int num_buffers_ = 0;
};

}  // namespace pjoin

#endif  // PJOIN_JOIN_HASH_JOIN_H_
