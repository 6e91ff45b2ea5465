// Shared hybrid-hash spill machinery for the three join strategies.
//
// Both joins spill in the radix partitioner's tuple format -- [hash:8B][row]
// padded to a fixed stride -- so a spilled partition is just a flat file of
// fixed-size tuples. Each spilled partition pair is joined independently:
// load the build side, build a robin-hood table over it, stream the probe
// side in 1 MiB chunks. When even a single build partition exceeds the
// governor's remaining budget, the pair is re-partitioned 16-way by the next
// unconsumed hash bits and processed recursively (Grace-style recursion,
// bounded so duplicate-heavy keys terminate).
//
// Per-partition match verdicts are final -- all tuples with equal keys land
// in the same partition at every level -- so build-preserving kinds emit
// their build rows during pair processing, exactly like the in-memory radix
// join does.
#ifndef PJOIN_SPILL_SPILL_JOIN_H_
#define PJOIN_SPILL_SPILL_JOIN_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "exec/query_metrics.h"
#include "join/join_types.h"
#include "join/key_spec.h"
#include "spill/memory_governor.h"
#include "spill/spill_file.h"

namespace pjoin {

// Counters for one join's spill activity; atomics because build/probe/join
// phases append from many workers.
struct SpillStats {
  std::atomic<uint64_t> bytes_written{0};
  std::atomic<uint64_t> bytes_read{0};
  // File bytes actually written/read when pages are compressed
  // (spill/spill_page.h); bytes_written/bytes_read stay logical (stride per
  // tuple) so spill accounting is comparable across modes.
  std::atomic<uint64_t> physical_bytes_written{0};
  std::atomic<uint64_t> physical_bytes_read{0};
  bool compressed = false;
  std::atomic<uint64_t> build_tuples_spilled{0};
  std::atomic<uint64_t> probe_tuples_spilled{0};
  std::atomic<uint64_t> max_depth{0};
  uint32_t partitions_spilled = 0;
  uint32_t partitions_total = 0;

  void NoteDepth(uint64_t depth) {
    uint64_t d = max_depth.load(std::memory_order_relaxed);
    while (depth > d && !max_depth.compare_exchange_weak(
                            d, depth, std::memory_order_relaxed)) {
    }
  }
};

// One side of one spilled partition: a flat file of fixed-stride
// [hash][row][pad] tuples with a mutex-serialized append path. The spill
// path is I/O-bound, so the lock is invisible next to the write() calls.
class SpillPartition {
 public:
  // `compressed` switches the file format to [raw][enc][payload] page frames
  // (spill/spill_page.h): tuples buffer into a page and are encoded on
  // flush, decoded on replay. Plain mode keeps the flat-file format (and
  // byte-identical files) of the pre-encoding engine.
  void Init(uint32_t tuple_stride, SpillStats* stats, bool compressed = false);

  uint32_t stride() const { return stride_; }
  bool compressed() const { return compressed_; }
  uint64_t tuples() const { return tuples_.load(std::memory_order_relaxed); }
  uint64_t bytes() const { return file_.size(); }
  // Tuple payload bytes, independent of the on-disk encoding; equals
  // bytes() in plain mode. Budget math sizes the decoded data, so it uses
  // this.
  uint64_t logical_bytes() const { return tuples() * stride_; }
  SpillFile& file() { return file_; }
  const SpillFile& file() const { return file_; }

  // Appends one pre-formatted spill tuple (stride() bytes). Thread-safe.
  void AppendTuple(const std::byte* tuple);

  // Formats and appends [hash][row][zero pad]. Thread-safe.
  void AppendHashRow(uint64_t hash, const std::byte* row, uint32_t row_bytes);

  // Appends a block of pre-formatted tuples (bytes % stride() == 0).
  // Thread-safe.
  void AppendRaw(const void* data, size_t bytes);

  // Flushes the pending page (compressed mode) and the file write buffer.
  void FinishWrite();

  // Streams every spilled tuple through `fn`, decoding pages as needed.
  // Call after FinishWrite; accounts logical bytes into stats bytes_read.
  void ForEachTuple(const std::function<void(const std::byte*)>& fn) const;

  // Reads (and decodes) the whole partition: logical_bytes() bytes.
  void ReadAllTuples(std::vector<std::byte>* out) const;

 private:
  void AppendLocked(const std::byte* data, size_t bytes);
  void FlushPageLocked();
  void NoteRead(uint64_t logical, uint64_t physical) const;

  SpillFile file_;
  std::mutex mu_;
  std::vector<std::byte> scratch_;
  std::vector<std::byte> page_;  // compressed mode: pending raw tuples
  uint32_t stride_ = 0;
  bool compressed_ = false;
  std::atomic<uint64_t> tuples_{0};
  SpillStats* stats_ = nullptr;
};

inline uint64_t SpillTupleHash(const std::byte* tuple) {
  uint64_t h;
  std::memcpy(&h, tuple, 8);
  return h;
}

inline const std::byte* SpillTupleRow(const std::byte* tuple) {
  return tuple + 8;
}

// Join-output callbacks; adapters route these into the strategy's native
// emission path (JoinEmitter for in-pipeline output, holding buffers for the
// BHJ build-scan replay).
class SpillEmitter {
 public:
  virtual ~SpillEmitter() = default;
  virtual void Pair(const std::byte* build_row, const std::byte* probe_row) = 0;
  virtual void ProbeOnly(const std::byte* probe_row) = 0;
  virtual void BuildOnly(const std::byte* build_row) = 0;
  virtual void Mark(const std::byte* probe_row, bool matched) = 0;
};

// Static description of the join a spilled pair belongs to.
struct SpillJoinSpec {
  JoinKind kind = JoinKind::kInner;
  const KeySpec* build_key = nullptr;
  const KeySpec* probe_key = nullptr;
  uint32_t build_stride = 0;  // spill tuple stride incl. 8-byte hash prefix
  uint32_t probe_stride = 0;
  int hash_shift = 0;  // low hash bits already consumed by partitioning
  MemoryGovernor* governor = nullptr;
  SpillStats* stats = nullptr;
};

// Joins one spilled partition pair, recursing when the build side still
// exceeds the budget. Returns the number of matched probe tuples (for the
// join's probe_matched counter). Single-threaded per pair; callers claim
// pairs from a shared cursor to parallelize across pairs.
uint64_t ProcessSpilledPair(const SpillJoinSpec& spec, SpillPartition& build,
                            SpillPartition& probe, SpillEmitter& emit,
                            int depth = 0);

// Runtime state of one hybrid join: which of the `fanout` partitions were
// evicted, their build/probe spill files, a claim cursor for cooperative
// pair processing, and a once-per-join barrier for joins whose spilled
// pairs are processed inside an operator Close (BHJ).
class SpillJoinState {
 public:
  // `build_stride`/`probe_stride`: spill tuple strides incl. hash prefix.
  SpillJoinState(int fanout, uint32_t build_stride, uint32_t probe_stride);

  int fanout() const { return fanout_; }
  uint32_t build_stride() const { return build_stride_; }
  uint32_t probe_stride() const { return probe_stride_; }

  void MarkSpilled(int p);
  bool IsSpilled(int p) const { return spilled_[p] != 0; }
  int num_spilled() const { return static_cast<int>(spilled_list_.size()); }
  int spilled_at(int i) const { return spilled_list_[i]; }

  SpillPartition& build(int p) { return *build_parts_[p]; }
  SpillPartition& probe(int p) { return *probe_parts_[p]; }

  void FinishBuildWrite();
  void FinishProbeWrite();

  // Claims the next spilled partition id, or -1 when all are taken.
  int ClaimPair() {
    int i = cursor_.fetch_add(1, std::memory_order_relaxed);
    return i < num_spilled() ? spilled_list_[i] : -1;
  }

  // Blocks until `expected` workers arrived; the last arrival flushes the
  // probe-side spill writers before releasing everyone.
  void AwaitProbeWorkers(int expected);

  SpillStats stats;

 private:
  int fanout_;
  uint32_t build_stride_;
  uint32_t probe_stride_;
  std::vector<uint8_t> spilled_;
  std::vector<int> spilled_list_;
  std::vector<std::unique_ptr<SpillPartition>> build_parts_;
  std::vector<std::unique_ptr<SpillPartition>> probe_parts_;
  std::atomic<int> cursor_{0};
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  bool barrier_open_ = false;
};

// Observability snapshot; a null state yields the all-zero (not-spilled)
// record, so join CollectMetrics can call this unconditionally.
inline SpillMetrics SnapshotSpill(const SpillJoinState* state) {
  SpillMetrics m;
  if (state == nullptr) return m;
  const SpillStats& s = state->stats;
  m.partitions_spilled = s.partitions_spilled;
  m.partitions_total = s.partitions_total;
  m.build_tuples_spilled =
      s.build_tuples_spilled.load(std::memory_order_relaxed);
  m.probe_tuples_spilled =
      s.probe_tuples_spilled.load(std::memory_order_relaxed);
  m.bytes_written = s.bytes_written.load(std::memory_order_relaxed);
  m.bytes_read = s.bytes_read.load(std::memory_order_relaxed);
  m.max_recursion_depth = s.max_depth.load(std::memory_order_relaxed);
  m.compressed = s.compressed;
  m.physical_bytes_written =
      s.physical_bytes_written.load(std::memory_order_relaxed);
  m.physical_bytes_read = s.physical_bytes_read.load(std::memory_order_relaxed);
  return m;
}

}  // namespace pjoin

#endif  // PJOIN_SPILL_SPILL_JOIN_H_
