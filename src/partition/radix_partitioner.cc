#include "partition/radix_partitioner.h"

#include <algorithm>
#include <cstring>

#include "exec/thread_pool.h"
#include "kernels/kernels.h"
#include "partition/stream_store.h"
#include "spill/memory_governor.h"
#include "util/bitutil.h"
#include "util/check.h"
#include "util/cpu_info.h"
#include "util/stopwatch.h"

namespace pjoin {

namespace {
// Maximum worker count supported without threading the pool through the
// constructor (buffers are lazily small).
constexpr int kMaxBits1 = 8;  // TLB-friendly pass-1 fan-out bound
constexpr int kMaxBits2 = 8;
}  // namespace

RadixBits ChooseRadixBits(uint64_t expected_build_tuples,
                          uint32_t tuple_stride) {
  // Target: one build partition plus its join table fit in half the L2
  // cache. The 24 B per tuple were sized for a robin-hood table (16 B/slot
  // at load factor ~2/3). The partition join's bucket chains take 20-36 B
  // per tuple (4-8 directory slots and a next index) beside the gathered
  // tuples, which still fits the whole L2 at the sizes picked here.
  const CpuInfo& cpu = GetCpuInfo();
  uint64_t budget = static_cast<uint64_t>(cpu.l2_bytes) / 2;
  uint64_t per_tuple = tuple_stride + 24;  // tuple + amortized table slot
  uint64_t want_partitions =
      (expected_build_tuples * per_tuple + budget - 1) / budget;
  int total_bits = CeilLog2(want_partitions | 1);
  if (total_bits < 1) total_bits = 1;
  if (total_bits > kMaxBits1 + kMaxBits2) total_bits = kMaxBits1 + kMaxBits2;
  RadixBits bits;
  bits.bits1 = total_bits <= kMaxBits1 ? total_bits : kMaxBits1;
  bits.bits2 = total_bits - bits.bits1;
  return bits;
}

RadixPartitioner::RadixPartitioner(const RadixConfig& config)
    : config_(config),
      fanout1_(1 << config.bits1),
      fanout2_(1 << config.bits2) {
  PJOIN_CHECK(config.bits1 >= 0 && config.bits1 <= kMaxBits1);
  PJOIN_CHECK(config.bits2 >= 0 && config.bits2 <= kMaxBits2);
  PJOIN_CHECK(config.num_threads >= 1);

  uint32_t raw = 8 + config.row_stride;
  if (config_.use_swwcb && NextPow2(raw) <= kCacheLineSize) {
    // Power-of-two padding so that write-combine blocks hold a whole number
    // of tuples; this is the padding trade-off discussed with Figure 10.
    tuple_stride_ = static_cast<uint32_t>(NextPow2(raw));
    tuples_per_block_ = kSwwcbBytes / tuple_stride_;
  } else {
    // Tuples wider than a cache line are written directly (the paper does
    // not use buffers for tuples larger than 64 B).
    tuple_stride_ = static_cast<uint32_t>(AlignUp(raw, 8));
    tuples_per_block_ = 0;
    config_.use_swwcb = false;
  }

  switch (tuples_per_block_ > 0 ? tuple_stride_ : 0) {
    case 16:
      stage_tuple_ = &RadixPartitioner::StageTuple<16>;
      stage_batch_ = &RadixPartitioner::StageBatch<16>;
      break;
    case 32:
      stage_tuple_ = &RadixPartitioner::StageTuple<32>;
      stage_batch_ = &RadixPartitioner::StageBatch<32>;
      break;
    case 64:
      stage_tuple_ = &RadixPartitioner::StageTuple<64>;
      stage_batch_ = &RadixPartitioner::StageBatch<64>;
      break;
    default:
      stage_tuple_ = &RadixPartitioner::StageTuple<0>;
      stage_batch_ = &RadixPartitioner::StageBatch<0>;
      break;
  }

  chunks_.resize(config.num_threads);
  swwcb_mem_.resize(config.num_threads);
  swwcb_fill_.resize(config.num_threads);
  hist_.resize(config.num_threads);
  pass1_stats_.resize(config.num_threads);
  for (int t = 0; t < config.num_threads; ++t) {
    chunks_[t].resize(fanout1_);
    for (auto& buf : chunks_[t]) buf.Init(tuple_stride_);
    if (tuples_per_block_ > 0) {
      swwcb_mem_[t].Allocate(static_cast<size_t>(fanout1_) * kSwwcbBytes);
      swwcb_fill_[t].assign(fanout1_, 0);
    }
  }
}

RadixPartitioner::~RadixPartitioner() {
  if (accounted_output_bytes_ > 0) {
    MemoryGovernor::Global().Release(accounted_output_bytes_);
  }
}

// The pass-1 scatter of one tuple. With the padded stride a compile-time
// constant, slot addressing is a shift and the block-full test a constant
// compare; a row that fills its padded slot exactly copies a fixed size.
// kStride == 0 writes unbuffered tuples (wider than a cache line) straight
// to the worker's chunks.
template <uint32_t kStride>
void RadixPartitioner::StageTuple(int thread_id, uint64_t hash,
                                  const std::byte* row) {
  const uint32_t row_stride = config_.row_stride;
  const int p1 = static_cast<int>(hash & static_cast<uint64_t>(fanout1_ - 1));
  if constexpr (kStride == 0) {
    std::byte* dst = chunks_[thread_id][p1].AllocBytes(tuple_stride_);
    std::memcpy(dst, &hash, 8);
    std::memcpy(dst + 8, row, row_stride);
  } else {
    std::byte* block =
        swwcb_mem_[thread_id].data() + static_cast<size_t>(p1) * kSwwcbBytes;
    uint32_t& fill = swwcb_fill_[thread_id][p1];
    std::byte* slot = block + static_cast<size_t>(fill) * kStride;
    std::memcpy(slot, &hash, 8);
    if (row_stride == kStride - 8) {
      std::memcpy(slot + 8, row, kStride - 8);
    } else {
      std::memcpy(slot + 8, row, row_stride);
    }
    if (++fill == kSwwcbBytes / kStride) {
      std::byte* dst = chunks_[thread_id][p1].AllocBytes(kSwwcbBytes);
      if (config_.use_streaming) {
        StreamCopyAligned(dst, block, kSwwcbBytes);
        pass1_stats_[thread_id].streamed_bytes += kSwwcbBytes;
      } else {
        std::memcpy(dst, block, kSwwcbBytes);
      }
      pass1_stats_[thread_id].flushes += 1;
      fill = 0;
    }
  }
}

template <uint32_t kStride>
void RadixPartitioner::StageBatch(int thread_id, const uint64_t* hashes,
                                  const std::byte* rows, const uint32_t* sel,
                                  uint32_t n) {
  for (uint32_t j = 0; j < n; ++j) {
    const uint32_t i = sel != nullptr ? sel[j] : j;
    StageTuple<kStride>(thread_id, hashes[i],
                        rows + static_cast<size_t>(i) * config_.row_stride);
  }
}

void RadixPartitioner::Add(int thread_id, uint64_t hash, const std::byte* row,
                           ByteCounter* bytes) {
  (this->*stage_tuple_)(thread_id, hash, row);
  if (bytes != nullptr) {
    bytes->AddWrite(JoinPhase::kPartitionPass1, tuple_stride_);
  }
}

void RadixPartitioner::AddBatch(int thread_id, const uint64_t* hashes,
                                const std::byte* rows, const uint32_t* sel,
                                uint32_t n, ByteCounter* bytes) {
  (this->*stage_batch_)(thread_id, hashes, rows, sel, n);
  if (bytes != nullptr) {
    bytes->AddWrite(JoinPhase::kPartitionPass1,
                    static_cast<uint64_t>(n) * tuple_stride_);
  }
}

void RadixPartitioner::FlushThread(int thread_id, ByteCounter* bytes) {
  if (tuples_per_block_ == 0) return;
  for (int p1 = 0; p1 < fanout1_; ++p1) {
    uint32_t fill = swwcb_fill_[thread_id][p1];
    if (fill == 0) continue;
    const std::byte* block =
        swwcb_mem_[thread_id].data() + static_cast<size_t>(p1) * kSwwcbBytes;
    // Partial buffers are copied tuple-wise after all block flushes, so the
    // chunk stays block-aligned for streamed writes.
    std::byte* dst =
        chunks_[thread_id][p1].AllocBytes(fill * tuple_stride_);
    std::memcpy(dst, block, static_cast<size_t>(fill) * tuple_stride_);
    swwcb_fill_[thread_id][p1] = 0;
    // No byte accounting here: Add() already counted every staged tuple.
    (void)bytes;
  }
  if (config_.use_streaming) StreamFence();
}

uint64_t RadixPartitioner::PendingTuples() const {
  uint64_t total = 0;
  for (const auto& per_thread : chunks_) {
    for (const auto& buf : per_thread) total += buf.num_tuples();
  }
  return total;
}

void RadixPartitioner::Finalize(ThreadPool& pool, PhaseTimer* timer,
                                ByteCounter* per_thread_bytes) {
  PJOIN_CHECK(!finalized_);
  finalized_ = true;
  if (in_place()) {
    FinalizeInPlace(pool, timer, per_thread_bytes);
    return;
  }
  const int nthreads = config_.num_threads;
  const uint64_t hist_cells =
      static_cast<uint64_t>(fanout1_) * static_cast<uint64_t>(fanout2_);

  // ---- Histogram scan (step 3): each worker scans its own chunks. --------
  Stopwatch watch;
  pool.ParallelRun([&](int pool_tid) {
    ByteCounter* bytes =
        per_thread_bytes != nullptr ? &per_thread_bytes[pool_tid] : nullptr;
    uint64_t read_bytes = 0;
    // Strided assignment covers all worker-local chunk sets even when the
    // finalizing pool has fewer threads than produced pass-1 data.
    for (int tid = pool_tid; tid < nthreads; tid += pool.num_threads()) {
      hist_[tid].assign(hist_cells, 0);
      for (int p1 = 0; p1 < fanout1_; ++p1) {
        uint64_t* row =
            hist_[tid].data() + static_cast<uint64_t>(p1) * fanout2_;
        chunks_[tid][p1].ForEachChunk([&](const std::byte* data,
                                          uint64_t used) {
          // Batched radix-bit extraction: the kernel reads each tuple's
          // leading hash word and bumps row[(hash >> bits1) & (fanout2-1)].
          ActiveKernels().histogram(data, used / tuple_stride_, tuple_stride_,
                                    config_.bits1, fanout2_ - 1, row);
          read_bytes += used;
        });
      }
    }
    if (bytes != nullptr) {
      bytes->AddRead(JoinPhase::kHistogramScan, read_bytes);
    }
  });
  if (timer != nullptr) {
    timer->Add(JoinPhase::kHistogramScan, watch.ElapsedSeconds());
  }

  // ---- Exchange (steps 4-5): prefix sums size the output exactly. --------
  watch.Reset();
  const int num_final = num_partitions();
  partition_offset_.assign(num_final + 1, 0);
  partition_count_.assign(num_final, 0);
  total_tuples_ = 0;
  for (int p1 = 0; p1 < fanout1_; ++p1) {
    for (int p2 = 0; p2 < fanout2_; ++p2) {
      uint64_t count = 0;
      for (int t = 0; t < nthreads; ++t) {
        count += hist_[t][static_cast<uint64_t>(p1) * fanout2_ + p2];
      }
      int f = p1 | (p2 << config_.bits1);
      partition_count_[f] = count;
      total_tuples_ += count;
    }
  }
  uint64_t offset = 0;
  for (int f = 0; f < num_final; ++f) {
    partition_offset_[f] = offset;
    // Partition bases stay cache-line aligned so pass-2 streaming flushes
    // land on aligned addresses.
    offset += AlignUp(partition_count_[f] * tuple_stride_, kCacheLineSize);
  }
  partition_offset_[num_final] = offset;
  output_.Allocate(offset > 0 ? offset : kCacheLineSize);
  accounted_output_bytes_ = offset > 0 ? offset : kCacheLineSize;
  MemoryGovernor::Global().Account(accounted_output_bytes_);

  // ---- Pass 2 (steps 6-8): pre-partitions as work-stealing morsels. ------
  pass2_cursor_.store(0, std::memory_order_relaxed);
  pool.ParallelRun([&](int pool_tid) {
    ByteCounter* bytes =
        per_thread_bytes != nullptr ? &per_thread_bytes[pool_tid] : nullptr;
    // Fresh write-combine buffers per worker for the fan-out of pass 2.
    AlignedBuffer swwcb;
    std::vector<uint32_t> fill;
    if (tuples_per_block_ > 0) {
      swwcb.Allocate(static_cast<size_t>(fanout2_) * kSwwcbBytes);
      fill.assign(fanout2_, 0);
    }
    std::vector<uint64_t> cursor_bytes(fanout2_);
    Pass1Stats local_stats;
    while (true) {
      int p1 = pass2_cursor_.fetch_add(1, std::memory_order_relaxed);
      if (p1 >= fanout1_) break;
      ScatterPrePartition(p1, cursor_bytes, swwcb.data(), fill, bytes,
                          &local_stats);
    }
    if (config_.use_streaming) StreamFence();
    if (local_stats.flushes > 0) {
      pass2_flushes_.fetch_add(local_stats.flushes,
                               std::memory_order_relaxed);
      pass2_streamed_bytes_.fetch_add(local_stats.streamed_bytes,
                                      std::memory_order_relaxed);
    }
  });
  if (timer != nullptr) {
    timer->Add(JoinPhase::kPartitionPass2, watch.ElapsedSeconds());
  }

  // Temporary partitions are no longer needed; release the memory before the
  // join phase starts (this is the peak-memory choke point the paper hits
  // with Q8/Q9/Q21 at SF 100).
  for (auto& per_thread : chunks_) {
    for (auto& buf : per_thread) buf.Clear();
  }
}

void RadixPartitioner::FinalizeInPlace(ThreadPool& pool, PhaseTimer* timer,
                                       ByteCounter* per_thread_bytes) {
  partition_count_.assign(fanout1_, 0);
  total_tuples_ = 0;
  for (int p1 = 0; p1 < fanout1_; ++p1) {
    for (const auto& worker : chunks_) {
      partition_count_[p1] += worker[p1].num_tuples();
    }
    total_tuples_ += partition_count_[p1];
  }
  BlockedBloomFilter* bloom = config_.bloom;
  if (bloom == nullptr || total_tuples_ == 0) return;

  // The filter's build is build-side work: its time and bytes are booked to
  // the build pipeline. One worker per pre-partition, each owning a
  // disjoint block range, so the inserts need no synchronization.
  Stopwatch watch;
  pass2_cursor_.store(0, std::memory_order_relaxed);
  pool.ParallelRun([&](int pool_tid) {
    uint64_t read_bytes = 0;
    while (true) {
      int p1 = pass2_cursor_.fetch_add(1, std::memory_order_relaxed);
      if (p1 >= fanout1_) break;
      ForEachPrePartitionChunk(p1, [&](const std::byte* data, uint64_t used) {
        for (uint64_t off = 0; off < used; off += tuple_stride_) {
          bloom->InsertUnsynchronized(TupleHash(data + off));
        }
        read_bytes += used;
      });
    }
    if (per_thread_bytes != nullptr) {
      per_thread_bytes[pool_tid].AddRead(JoinPhase::kBuildPipeline,
                                         read_bytes);
    }
  });
  if (timer != nullptr) {
    timer->Add(JoinPhase::kBuildPipeline, watch.ElapsedSeconds());
  }
}

void RadixPartitioner::ScatterPrePartition(int p1,
                                           std::vector<uint64_t>& cursor_bytes,
                                           std::byte* swwcb_mem,
                                           std::vector<uint32_t>& fill,
                                           ByteCounter* bytes,
                                           Pass1Stats* local_stats) {
  // Initialize output cursors of this pre-partition's final partitions.
  for (int p2 = 0; p2 < fanout2_; ++p2) {
    int f = p1 | (p2 << config_.bits1);
    cursor_bytes[p2] = partition_offset_[f];
  }
  if (tuples_per_block_ > 0) {
    std::fill(fill.begin(), fill.end(), 0);
  }

  uint64_t read_bytes = 0;
  uint64_t written_bytes = 0;
  // The same worker processes the entire linked list of one pre-partition;
  // every final partition has exactly one writer, so no synchronization.
  for (int t = 0; t < config_.num_threads; ++t) {
    chunks_[t][p1].ForEachChunk([&](const std::byte* data, uint64_t used) {
      read_bytes += used;
      for (uint64_t off = 0; off < used; off += tuple_stride_) {
        const std::byte* tuple = data + off;
        uint64_t hash = TupleHash(tuple);
        int p2 = static_cast<int>((hash >> config_.bits1) &
                                  static_cast<uint64_t>(fanout2_ - 1));
        if (config_.bloom != nullptr) {
          // Disjoint block ranges per pre-partition: unsynchronized insert.
          config_.bloom->InsertUnsynchronized(hash);
        }
        if (tuples_per_block_ > 0) {
          std::byte* block = swwcb_mem + static_cast<size_t>(p2) * kSwwcbBytes;
          std::byte* slot =
              block + static_cast<size_t>(fill[p2]) * tuple_stride_;
          std::memcpy(slot, tuple, tuple_stride_);
          if (++fill[p2] == tuples_per_block_) {
            std::byte* dst = output_.data() + cursor_bytes[p2];
            if (config_.use_streaming) {
              StreamCopyAligned(dst, block, kSwwcbBytes);
              local_stats->streamed_bytes += kSwwcbBytes;
            } else {
              std::memcpy(dst, block, kSwwcbBytes);
            }
            local_stats->flushes += 1;
            cursor_bytes[p2] += kSwwcbBytes;
            fill[p2] = 0;
            written_bytes += kSwwcbBytes;
          }
        } else {
          std::byte* dst = output_.data() + cursor_bytes[p2];
          std::memcpy(dst, tuple, tuple_stride_);
          cursor_bytes[p2] += tuple_stride_;
          written_bytes += tuple_stride_;
        }
      }
    });
  }
  // Drain partial write-combine buffers tuple-wise.
  if (tuples_per_block_ > 0) {
    for (int p2 = 0; p2 < fanout2_; ++p2) {
      if (fill[p2] == 0) continue;
      const std::byte* block = swwcb_mem + static_cast<size_t>(p2) * kSwwcbBytes;
      size_t tail = static_cast<size_t>(fill[p2]) * tuple_stride_;
      std::memcpy(output_.data() + cursor_bytes[p2], block, tail);
      cursor_bytes[p2] += tail;
      written_bytes += tail;
      fill[p2] = 0;
    }
  }
#ifndef NDEBUG
  for (int p2 = 0; p2 < fanout2_; ++p2) {
    int f = p1 | (p2 << config_.bits1);
    PJOIN_DCHECK(cursor_bytes[p2] ==
                 partition_offset_[f] + partition_count_[f] * tuple_stride_);
  }
#endif
  if (bytes != nullptr) {
    bytes->AddRead(JoinPhase::kPartitionPass2, read_bytes);
    bytes->AddWrite(JoinPhase::kPartitionPass2, written_bytes);
  }
}

PartitionerMetrics RadixPartitioner::Metrics() const {
  PartitionerMetrics m;
  m.bits1 = config_.bits1;
  m.bits2 = config_.bits2;
  m.num_partitions = num_partitions();
  m.tuples = total_tuples_;
  m.output_bytes = OutputBytes();
  m.swwcb_flushes = pass2_flushes_.load(std::memory_order_relaxed);
  m.streamed_bytes = pass2_streamed_bytes_.load(std::memory_order_relaxed);
  for (const Pass1Stats& s : pass1_stats_) {
    m.swwcb_flushes += s.flushes;
    m.streamed_bytes += s.streamed_bytes;
  }
  if (!partition_count_.empty()) {
    m.max_partition_tuples = partition_count_[0];
    m.min_partition_tuples = partition_count_[0];
    for (uint64_t count : partition_count_) {
      if (count > m.max_partition_tuples) m.max_partition_tuples = count;
      if (count < m.min_partition_tuples) m.min_partition_tuples = count;
    }
  }
  return m;
}

uint64_t RadixPartitioner::TemporaryBytes() const {
  uint64_t total = 0;
  for (const auto& per_thread : chunks_) {
    for (const auto& buf : per_thread) total += buf.total_bytes();
  }
  return total;
}

}  // namespace pjoin
