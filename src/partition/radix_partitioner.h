// Morsel-driven two-pass radix partitioner (Sections 3 and 4.5 of the paper).
//
// The partitioner consumes a tuple dataflow (hash + row bytes) and produces
// 2^(bits1+bits2) cache-sized partitions.
//
// Phases, matching Figure 6 of the paper:
//   pass 1    Workers stage incoming tuples into worker-local software
//             write-combine buffers (1); full buffers are streamed with
//             non-temporal stores into worker-local chunked temporary
//             partitions (2). Fan-out 2^bits1 from the LOW hash bits, bounded
//             so parallel writes do not thrash the TLB.
//   scan      Each worker re-scans its own chunks and builds a histogram of
//             the 2^bits2 sub-partitions of the second pass (3).
//   exchange  Prefix sums over all worker histograms size the final output
//             buffer exactly (4); the workers' chunk lists are concatenated
//             into pre-partitions (5).
//   pass 2    Pre-partitions become morsels (6); one worker scatters a whole
//             pre-partition through fresh write-combine buffers to the final
//             offsets (7), with work-stealing between pre-partitions (8).
//             Because every final partition receives tuples from exactly one
//             pre-partition, pass 2 needs no synchronization at all. When
//             requested, the pass also inserts every build tuple into a
//             register-blocked Bloom filter — safe unsynchronized because a
//             pre-partition owns a disjoint block range.
//
// With bits2 == 0 the pass-1 pre-partitions already are the final
// partitions, so scan, exchange and pass 2 are skipped: the partitions are
// read in place from the pass-1 chunk lists, and a requested Bloom filter is
// filled from them one pre-partition per worker. A partition is therefore a
// short list of contiguous spans (ForEachPartitionSpan): one span per
// non-empty chunk with bits2 == 0, a single span of the output buffer
// otherwise.
//
// Partition-tuple format: [hash: 8B][row: row_stride][padding]. The stride is
// padded to a power of two (<= 64B) when write-combine buffers are in use;
// the paper's Figure 10 discussion covers exactly this padding trade-off.
// Tuples wider than 64 bytes are written directly without buffers, as in the
// paper.
#ifndef PJOIN_PARTITION_RADIX_PARTITIONER_H_
#define PJOIN_PARTITION_RADIX_PARTITIONER_H_

#include <atomic>
#include <cstdint>
#include <vector>

#include "exec/query_metrics.h"
#include "filter/blocked_bloom.h"
#include "partition/chunked_buffer.h"
#include "util/aligned_buffer.h"
#include "util/byte_counter.h"

namespace pjoin {

class ThreadPool;
class PhaseTimer;

struct RadixConfig {
  uint32_t row_stride = 8;  // bytes of the row payload (hash excluded)
  int bits1 = 6;            // fan-out of pass 1 (TLB-bounded)
  int bits2 = 4;            // fan-out of pass 2 per pre-partition
  int num_threads = 1;
  bool use_swwcb = true;
  bool use_streaming = true;          // non-temporal flushes (needs use_swwcb)
  BlockedBloomFilter* bloom = nullptr;  // built during pass 2 when non-null
};

// Picks total radix bits so one build partition's hash table fits the L2
// cache, split into two TLB-friendly passes. Returns {bits1, bits2}.
struct RadixBits {
  int bits1 = 0;
  int bits2 = 0;
};
RadixBits ChooseRadixBits(uint64_t expected_build_tuples, uint32_t tuple_stride);

class RadixPartitioner {
 public:
  explicit RadixPartitioner(const RadixConfig& config);
  ~RadixPartitioner();

  uint32_t tuple_stride() const { return tuple_stride_; }
  int num_partitions() const { return 1 << (config_.bits1 + config_.bits2); }

  // ---- Pass 1 (called from pipeline workers) ----------------------------

  // Stages one tuple. `row` must provide row_stride bytes.
  void Add(int thread_id, uint64_t hash, const std::byte* row,
           ByteCounter* bytes);

  // Stages a batch: rows[i] lives at rows + i * row_stride and hashes to
  // hashes[i]. With a selection vector, only the n rows sel[0..n) are staged
  // (in that order); without one, rows 0..n.
  void AddBatch(int thread_id, const uint64_t* hashes, const std::byte* rows,
                const uint32_t* sel, uint32_t n, ByteCounter* bytes);

  // Flushes the worker's write-combine buffers (call from Close).
  void FlushThread(int thread_id, ByteCounter* bytes);

  // ---- Breaker work (called once, after all workers closed) -------------

  // Tuples staged so far (valid after all FlushThread calls); used to size
  // the Bloom filter before pass 2 inserts into it.
  uint64_t PendingTuples() const;

  // Late-binds the Bloom filter built during pass 2 (must be sized already).
  void set_bloom(BlockedBloomFilter* bloom) { config_.bloom = bloom; }

  // Visits every staged tuple as fn(hash, row). Valid in the same window as
  // PendingTuples() — after all FlushThread calls, before Finalize. The
  // kAuto guardrail uses this to re-route an overflowing build side into the
  // non-partitioned join without re-reading the input.
  template <typename Fn>
  void ForEachStagedTuple(Fn&& fn) const {
    for (const auto& worker : chunks_) {
      for (const ChunkedTupleBuffer& buf : worker) {
        buf.ForEachChunk([&](const std::byte* data, uint64_t used) {
          for (uint64_t off = 0; off + tuple_stride_ <= used;
               off += tuple_stride_) {
            const std::byte* tuple = data + off;
            fn(TupleHash(tuple), TupleRow(tuple));
          }
        });
      }
    }
  }

  // ---- Spill hooks (valid in the PendingTuples window) -------------------
  //
  // Pass-1 pre-partitions (LOW bits1 hash bits) are the spill granularity of
  // the hybrid radix join: a spilled pre-partition's chunks are streamed to
  // disk and cleared before Finalize, so the exchange only sizes the
  // resident remainder (the spilled final partitions end up empty).

  // Bytes staged in pre-partition `p1` across all workers.
  uint64_t PrePartitionBytes(int p1) const {
    uint64_t total = 0;
    for (const auto& worker : chunks_) total += worker[p1].total_bytes();
    return total;
  }

  // Visits every staged chunk of pre-partition `p1` as fn(data, used_bytes);
  // chunk data is contiguous tuples in partition-tuple format.
  template <typename Fn>
  void ForEachPrePartitionChunk(int p1, Fn&& fn) const {
    for (const auto& worker : chunks_) {
      worker[p1].ForEachChunk(fn);
    }
  }

  // Frees pre-partition `p1`'s chunks (releasing their governor accounting).
  void ClearPrePartition(int p1) {
    for (auto& worker : chunks_) worker[p1].Clear();
  }

  // Runs histogram scan, exchange, and pass 2 on `pool` — or, with
  // bits2 == 0, only counts the partitions and fills the Bloom filter. Phase
  // wall times go to `timer`; byte counts to `per_thread_bytes`, an array
  // indexed by pool thread id (either may be null).
  void Finalize(ThreadPool& pool, PhaseTimer* timer,
                ByteCounter* per_thread_bytes);

  // ---- Results -----------------------------------------------------------

  // True when the partitions are the pass-1 chunk lists (bits2 == 0).
  bool in_place() const { return config_.bits2 == 0; }

  uint64_t total_tuples() const { return total_tuples_; }
  uint64_t partition_tuples(int f) const { return partition_count_[f]; }

  // Visits partition `f` as fn(data, tuples) over its contiguous spans, in
  // no particular order; spans are never empty.
  template <typename Fn>
  void ForEachPartitionSpan(int f, Fn&& fn) const {
    if (in_place()) {
      for (const auto& worker : chunks_) {
        worker[f].ForEachChunk([&](const std::byte* data, uint64_t used) {
          fn(data, used / tuple_stride_);
        });
      }
    } else if (partition_count_[f] > 0) {
      fn(output_.data() + partition_offset_[f], partition_count_[f]);
    }
  }

  // Hash and row accessors on partition tuples.
  static uint64_t TupleHash(const std::byte* tuple) {
    uint64_t h;
    __builtin_memcpy(&h, tuple, 8);
    return h;
  }
  static const std::byte* TupleRow(const std::byte* tuple) { return tuple + 8; }

  // Bytes held in temporary + final partition storage (memory footprint).
  uint64_t TemporaryBytes() const;
  // Bytes of final partition storage: the output buffer, or the staged
  // chunk bytes when the partitions are read in place.
  uint64_t OutputBytes() const {
    return in_place() ? total_tuples_ * tuple_stride_ : output_.size();
  }

  const RadixConfig& config() const { return config_; }

  // Snapshot for the observability layer (partition sizes are only
  // meaningful after Finalize; SWWCB counters accumulate from pass 1 on).
  PartitionerMetrics Metrics() const;

 private:
  struct WriteCombineBuffer;

  // Per-worker pass-1 write-combine accounting (padded: bumped on the
  // tuple-staging hot path).
  struct alignas(64) Pass1Stats {
    uint64_t flushes = 0;
    uint64_t streamed_bytes = 0;
  };

  template <uint32_t kStride>
  void StageTuple(int thread_id, uint64_t hash, const std::byte* row);
  template <uint32_t kStride>
  void StageBatch(int thread_id, const uint64_t* hashes,
                  const std::byte* rows, const uint32_t* sel, uint32_t n);
  // Finalize for bits2 == 0: counts and (with a Bloom filter) fills it.
  void FinalizeInPlace(ThreadPool& pool, PhaseTimer* timer,
                       ByteCounter* per_thread_bytes);
  void ScatterPrePartition(int p1, std::vector<uint64_t>& cursor_bytes,
                           std::byte* swwcb_mem, std::vector<uint32_t>& fill,
                           ByteCounter* bytes, Pass1Stats* local_stats);

  RadixConfig config_;
  // The scatter instantiated for this partitioner's stride.
  void (RadixPartitioner::*stage_tuple_)(int, uint64_t, const std::byte*);
  void (RadixPartitioner::*stage_batch_)(int, const uint64_t*,
                                         const std::byte*, const uint32_t*,
                                         uint32_t);
  uint32_t tuple_stride_;       // padded on-disk stride incl. hash
  uint32_t tuples_per_block_;   // tuples per write-combine block (0: unbuffered)
  int fanout1_;
  int fanout2_;

  // chunks_[tid][p1]: worker-local temporary partitions (pass 1 output).
  std::vector<std::vector<ChunkedTupleBuffer>> chunks_;
  // Pass-1 write-combine buffers: swwcb_mem_[tid] holds fanout1 blocks.
  std::vector<AlignedBuffer> swwcb_mem_;
  std::vector<std::vector<uint32_t>> swwcb_fill_;

  // Histograms: hist_[tid][p1 * fanout2 + p2].
  std::vector<std::vector<uint64_t>> hist_;

  // Exchange output.
  std::vector<uint64_t> partition_offset_;  // byte offset per final partition
  std::vector<uint64_t> partition_count_;   // tuples per final partition
  uint64_t total_tuples_ = 0;
  AlignedBuffer output_;

  // Work-stealing cursor over pre-partitions (pass 2, in-place Bloom fill).
  std::atomic<int> pass2_cursor_{0};
  bool finalized_ = false;
  // Output-buffer bytes reported to the memory governor (chunks account
  // themselves inside ChunkedTupleBuffer).
  uint64_t accounted_output_bytes_ = 0;

  // Observability counters: pass 1 is worker-indexed (contention-free);
  // pass 2 workers accumulate locally and add once at region end.
  std::vector<Pass1Stats> pass1_stats_;
  std::atomic<uint64_t> pass2_flushes_{0};
  std::atomic<uint64_t> pass2_streamed_bytes_{0};
};

}  // namespace pjoin

#endif  // PJOIN_PARTITION_RADIX_PARTITIONER_H_
