// Tests for the chunked buffers and the two-pass radix partitioner.
#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "exec/thread_pool.h"
#include "filter/blocked_bloom.h"
#include "partition/chunked_buffer.h"
#include "partition/radix_partitioner.h"
#include "spill/memory_governor.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pjoin {
namespace {

TEST(ChunkedBuffer, AppendAcrossChunks) {
  ChunkedTupleBuffer buf;
  buf.Init(16);
  for (int i = 0; i < 5000; ++i) {
    std::byte* dst = buf.AllocBytes(16);
    std::memcpy(dst, &i, 4);
  }
  EXPECT_EQ(buf.num_tuples(), 5000u);
  EXPECT_EQ(buf.total_bytes(), 5000u * 16u);
  int next = 0;
  buf.ForEachChunk([&](const std::byte* data, uint64_t used) {
    for (uint64_t off = 0; off < used; off += 16) {
      int v;
      std::memcpy(&v, data + off, 4);
      EXPECT_EQ(v, next++);
    }
  });
  EXPECT_EQ(next, 5000);
}

TEST(ChunkedBuffer, BlockAllocationsStayAligned) {
  ChunkedTupleBuffer buf;
  buf.Init(16);
  for (int i = 0; i < 1000; ++i) {
    std::byte* dst = buf.AllocBytes(kSwwcbBytes);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(dst) % 64, 0u) << i;
  }
}

TEST(ChunkedBuffer, ClearReleases) {
  ChunkedTupleBuffer buf;
  buf.Init(8);
  buf.AllocBytes(8);
  buf.Clear();
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(buf.num_tuples(), 0u);
}

// ---- RadixPartitioner -------------------------------------------------------

// Walks every partition through the span API: each key 0..n-1 (row = key
// bytes) appears exactly once, in the partition its hash's low bits name,
// with its hash stored alongside.
void ExpectEveryKeyOnceInItsPartition(const RadixPartitioner& part,
                                      uint64_t n) {
  const int mask = part.num_partitions() - 1;
  uint64_t seen = 0;
  std::vector<char> key_seen(n, 0);
  for (int f = 0; f < part.num_partitions(); ++f) {
    uint64_t in_partition = 0;
    part.ForEachPartitionSpan(f, [&](const std::byte* data, uint64_t count) {
      ASSERT_GT(count, 0u);
      for (uint64_t i = 0; i < count; ++i) {
        const std::byte* tuple = data + i * part.tuple_stride();
        uint64_t hash = RadixPartitioner::TupleHash(tuple);
        EXPECT_EQ(static_cast<int>(hash & mask), f);
        uint64_t key;
        std::memcpy(&key, RadixPartitioner::TupleRow(tuple), 8);
        ASSERT_LT(key, n);
        EXPECT_EQ(hash, HashInt64(key));  // hash stored with the tuple
        key_seen[key]++;
        ++in_partition;
      }
    });
    EXPECT_EQ(in_partition, part.partition_tuples(f));
    seen += in_partition;
  }
  EXPECT_EQ(seen, n);
  for (uint64_t k = 0; k < n; ++k) {
    EXPECT_EQ(key_seen[k], 1) << "key duplicated or lost: " << k;
  }
}

struct PartitionCase {
  int bits1;
  int bits2;
  bool swwcb;
  bool streaming;
  uint32_t row_stride;
  int threads;
};

class RadixPartitionerTest
    : public ::testing::TestWithParam<PartitionCase> {};

TEST_P(RadixPartitionerTest, AllTuplesLandInCorrectPartition) {
  const PartitionCase& pc = GetParam();
  RadixConfig config;
  config.row_stride = pc.row_stride;
  config.bits1 = pc.bits1;
  config.bits2 = pc.bits2;
  config.num_threads = pc.threads;
  config.use_swwcb = pc.swwcb;
  config.use_streaming = pc.streaming;
  RadixPartitioner part(config);

  const uint64_t kTuples = 40000;
  ThreadPool pool(pc.threads);
  // Feed tuples round-robin from all worker threads, row = key bytes.
  pool.ParallelRun([&](int tid) {
    std::vector<std::byte> row(pc.row_stride);
    for (uint64_t k = tid; k < kTuples; k += pc.threads) {
      std::memcpy(row.data(), &k, 8);
      part.Add(tid, HashInt64(k), row.data(), nullptr);
    }
    part.FlushThread(tid, nullptr);
  });
  const uint64_t reserved_before = MemoryGovernor::Global().reserved();
  const uint64_t staged_before = part.TemporaryBytes();
  part.Finalize(pool, nullptr, nullptr);

  EXPECT_EQ(part.total_tuples(), kTuples);
  EXPECT_EQ(part.in_place(), pc.bits2 == 0);
  if (part.in_place()) {
    // Single-pass partitions are the pass-1 chunks read in place: Finalize
    // allocates no output buffer and frees no chunk, and the reported
    // partition storage is exactly the staged tuples.
    EXPECT_EQ(MemoryGovernor::Global().reserved(), reserved_before);
    EXPECT_EQ(part.TemporaryBytes(), staged_before);
    EXPECT_EQ(part.OutputBytes(), kTuples * part.tuple_stride());
  } else {
    EXPECT_EQ(part.TemporaryBytes(), 0u);  // chunks freed after pass 2
    EXPECT_GE(part.OutputBytes(), kTuples * part.tuple_stride());
  }
  ExpectEveryKeyOnceInItsPartition(part, kTuples);
}

INSTANTIATE_TEST_SUITE_P(
    Sweeps, RadixPartitionerTest,
    ::testing::Values(
        PartitionCase{4, 4, true, true, 8, 1},
        PartitionCase{4, 4, true, true, 8, 4},
        PartitionCase{6, 4, true, false, 8, 2},   // SWWCB without streaming
        PartitionCase{6, 4, false, false, 8, 2},  // direct scatter
        PartitionCase{3, 0, true, true, 8, 2},    // single-pass (bits2 = 0)
        PartitionCase{5, 0, true, true, 24, 3},   // single-pass, 32B padded
        PartitionCase{4, 0, false, false, 8, 2},  // single-pass, direct
        PartitionCase{4, 0, true, true, 100, 2},  // single-pass, unbuffered
        PartitionCase{0, 4, true, true, 8, 2},    // degenerate pass 1
        PartitionCase{5, 3, true, true, 24, 3},   // 32B padded tuples
        PartitionCase{4, 2, true, true, 56, 2},   // 64B padded tuples
        PartitionCase{4, 2, true, true, 100, 2},  // >64B: buffers disabled
        PartitionCase{8, 8, true, true, 8, 2}));  // max fan-out 65536

TEST(RadixPartitioner, EmptyInput) {
  RadixConfig config;
  config.num_threads = 2;
  RadixPartitioner part(config);
  ThreadPool pool(2);
  pool.ParallelRun([&](int tid) { part.FlushThread(tid, nullptr); });
  part.Finalize(pool, nullptr, nullptr);
  EXPECT_EQ(part.total_tuples(), 0u);
  for (int f = 0; f < part.num_partitions(); ++f) {
    EXPECT_EQ(part.partition_tuples(f), 0u);
  }
}

TEST(RadixPartitioner, StridePaddedToPowerOfTwo) {
  RadixConfig config;
  config.row_stride = 24;  // 8 hash + 24 row = 32
  RadixPartitioner part(config);
  EXPECT_EQ(part.tuple_stride(), 32u);

  config.row_stride = 25;  // 33 -> pad to 64
  RadixPartitioner part2(config);
  EXPECT_EQ(part2.tuple_stride(), 64u);

  config.row_stride = 80;  // 88 > 64: unbuffered, 8-byte aligned
  RadixPartitioner part3(config);
  EXPECT_EQ(part3.tuple_stride(), 88u);
}

TEST(RadixPartitioner, PendingTuplesBeforeFinalize) {
  RadixConfig config;
  config.num_threads = 1;
  config.row_stride = 8;
  RadixPartitioner part(config);
  int64_t row = 0;
  for (uint64_t k = 0; k < 777; ++k) {
    part.Add(0, HashInt64(k), reinterpret_cast<std::byte*>(&row), nullptr);
  }
  part.FlushThread(0, nullptr);
  EXPECT_EQ(part.PendingTuples(), 777u);
}

TEST(RadixPartitioner, BloomBuiltDuringPass2) {
  RadixConfig config;
  config.num_threads = 1;
  config.row_stride = 8;
  config.bits1 = 4;
  config.bits2 = 2;
  RadixPartitioner part(config);
  BlockedBloomFilter bloom;

  int64_t row = 0;
  for (uint64_t k = 0; k < 5000; ++k) {
    part.Add(0, HashInt64(k), reinterpret_cast<std::byte*>(&row), nullptr);
  }
  part.FlushThread(0, nullptr);
  bloom.Resize(part.PendingTuples(), uint64_t{1} << config.bits1);
  part.set_bloom(&bloom);
  ThreadPool pool(1);
  part.Finalize(pool, nullptr, nullptr);

  for (uint64_t k = 0; k < 5000; ++k) {
    EXPECT_TRUE(bloom.MayContain(HashInt64(k)));
  }
  int fp = 0;
  for (uint64_t k = 5000; k < 15000; ++k) {
    if (bloom.MayContain(HashInt64(k))) ++fp;
  }
  EXPECT_LT(fp, 1000);
}

TEST(RadixPartitioner, BloomFilledInPlace) {
  // bits2 == 0: no pass 2 runs; Finalize fills the filter from the pass-1
  // chunks, one pre-partition per worker.
  RadixConfig config;
  config.num_threads = 2;
  config.row_stride = 8;
  config.bits1 = 5;
  config.bits2 = 0;
  RadixPartitioner part(config);
  ThreadPool pool(2);
  const uint64_t kTuples = 20000;
  pool.ParallelRun([&](int tid) {
    for (uint64_t k = tid; k < kTuples; k += 2) {
      part.Add(tid, HashInt64(k), reinterpret_cast<const std::byte*>(&k),
               nullptr);
    }
    part.FlushThread(tid, nullptr);
  });
  BlockedBloomFilter bloom;
  bloom.Resize(part.PendingTuples(), uint64_t{1} << config.bits1);
  part.set_bloom(&bloom);
  PhaseTimer timer;
  part.Finalize(pool, &timer, nullptr);
  for (uint64_t k = 0; k < kTuples; ++k) {
    EXPECT_TRUE(bloom.MayContain(HashInt64(k))) << k;
  }
  EXPECT_EQ(timer.seconds(JoinPhase::kHistogramScan), 0.0);
  EXPECT_EQ(timer.seconds(JoinPhase::kPartitionPass2), 0.0);
  ExpectEveryKeyOnceInItsPartition(part, kTuples);
}

// The batched scatter stages exactly what per-tuple Add stages, and both
// stage what a plain scan of the input says each pre-partition holds, in
// input order, at every stride class: 16, 32 and 64 B padded and
// unbuffered.
TEST(RadixPartitioner, AddBatchMatchesAdd) {
  for (uint32_t row_stride : {8u, 24u, 56u, 100u}) {
    for (bool with_sel : {false, true}) {
      SCOPED_TRACE("row_stride=" + std::to_string(row_stride) +
                   " sel=" + std::to_string(with_sel));
      RadixConfig config;
      config.row_stride = row_stride;
      config.bits1 = 4;
      config.bits2 = 0;
      RadixPartitioner by_tuple(config);
      RadixPartitioner by_batch(config);
      ByteCounter tuple_bytes;
      ByteCounter batch_bytes;
      Rng rng(7 + row_stride);
      constexpr uint32_t kBatch = 1024;
      std::vector<std::byte> rows(static_cast<size_t>(kBatch) * row_stride);
      uint64_t hashes[kBatch];
      uint32_t sel[kBatch];
      uint64_t staged = 0;
      // Hash and row bytes per pre-partition, in staging order.
      std::vector<std::vector<std::byte>> want(16);
      for (int b = 0; b < 5; ++b) {
        const uint32_t size = b == 4 ? 333 : kBatch;
        for (uint32_t i = 0; i < size; ++i) {
          std::byte* row = rows.data() + static_cast<size_t>(i) * row_stride;
          for (uint32_t c = 0; c < row_stride; ++c) {
            row[c] = static_cast<std::byte>(rng.Next());
          }
          hashes[i] = rng.Next();
        }
        uint32_t n = size;
        if (with_sel) {
          n = 0;
          for (uint32_t i = 0; i < size; ++i) {
            if (rng.Below(3) != 0) sel[n++] = i;
          }
        }
        for (uint32_t j = 0; j < n; ++j) {
          const uint32_t i = with_sel ? sel[j] : j;
          const std::byte* row =
              rows.data() + static_cast<size_t>(i) * row_stride;
          by_tuple.Add(0, hashes[i], row, &tuple_bytes);
          std::vector<std::byte>& w = want[hashes[i] & 15];
          const auto* h = reinterpret_cast<const std::byte*>(&hashes[i]);
          w.insert(w.end(), h, h + 8);
          w.insert(w.end(), row, row + row_stride);
        }
        by_batch.AddBatch(0, hashes, rows.data(), with_sel ? sel : nullptr,
                          n, &batch_bytes);
        staged += n;
      }
      by_tuple.FlushThread(0, nullptr);
      by_batch.FlushThread(0, nullptr);
      EXPECT_EQ(by_batch.PendingTuples(), staged);
      EXPECT_EQ(batch_bytes.phase(JoinPhase::kPartitionPass1).written,
                tuple_bytes.phase(JoinPhase::kPartitionPass1).written);
      EXPECT_EQ(by_batch.Metrics().swwcb_flushes,
                by_tuple.Metrics().swwcb_flushes);
      const uint32_t stride = by_tuple.tuple_stride();
      ASSERT_EQ(by_batch.tuple_stride(), stride);
      for (int p1 = 0; p1 < 16; ++p1) {
        std::vector<std::byte> expected;
        std::vector<std::byte> actual;
        auto collect = [&](std::vector<std::byte>* out) {
          return [out, stride, row_stride](const std::byte* data,
                                           uint64_t used) {
            // Hash and row only: the padding bytes are unspecified.
            for (uint64_t off = 0; off < used; off += stride) {
              out->insert(out->end(), data + off, data + off + 8 + row_stride);
            }
          };
        };
        by_tuple.ForEachPrePartitionChunk(p1, collect(&expected));
        by_batch.ForEachPrePartitionChunk(p1, collect(&actual));
        EXPECT_EQ(expected, want[p1]) << "pre-partition " << p1;
        EXPECT_EQ(actual, want[p1]) << "pre-partition " << p1;
      }
    }
  }
}

TEST(RadixPartitioner, ByteAccountingCoversAllTuples) {
  RadixConfig config;
  config.num_threads = 1;
  config.row_stride = 8;
  RadixPartitioner part(config);
  ByteCounter bytes;
  int64_t row = 0;
  const uint64_t kTuples = 10000;
  for (uint64_t k = 0; k < kTuples; ++k) {
    part.Add(0, HashInt64(k), reinterpret_cast<std::byte*>(&row), &bytes);
  }
  part.FlushThread(0, &bytes);
  ThreadPool pool(1);
  ByteCounter finalize_bytes[1];
  part.Finalize(pool, nullptr, finalize_bytes);
  uint64_t stride = part.tuple_stride();
  EXPECT_EQ(bytes.phase(JoinPhase::kPartitionPass1).written, kTuples * stride);
  EXPECT_EQ(finalize_bytes[0].phase(JoinPhase::kPartitionPass2).written,
            kTuples * stride);
  EXPECT_EQ(finalize_bytes[0].phase(JoinPhase::kHistogramScan).read,
            kTuples * stride);
}

TEST(ChooseRadixBits, ScalesWithBuildSize) {
  RadixBits small = ChooseRadixBits(1000, 16);
  RadixBits large = ChooseRadixBits(100'000'000, 16);
  EXPECT_LE(small.bits1 + small.bits2, large.bits1 + large.bits2);
  EXPECT_GE(small.bits1 + small.bits2, 1);
  EXPECT_LE(large.bits1 + large.bits2, 16);
}

TEST(RadixPartitioner, SkewedInputStillCorrect) {
  // Heavy skew (many duplicates of one key) stresses the chunk growth and
  // per-partition cursor logic.
  RadixConfig config;
  config.num_threads = 2;
  config.row_stride = 8;
  config.bits1 = 4;
  config.bits2 = 4;
  RadixPartitioner part(config);
  ThreadPool pool(2);
  const uint64_t kTuples = 60000;
  pool.ParallelRun([&](int tid) {
    Rng rng(100 + tid);
    int64_t row = 0;
    for (uint64_t i = tid; i < kTuples; i += 2) {
      uint64_t key = rng.Below(10) == 0 ? rng.Below(1000) : 42;  // ~90% dup
      part.Add(tid, HashInt64(key), reinterpret_cast<std::byte*>(&row),
               nullptr);
    }
    part.FlushThread(tid, nullptr);
  });
  part.Finalize(pool, nullptr, nullptr);
  EXPECT_EQ(part.total_tuples(), kTuples);
  // The partition holding key 42 must contain >= 90% of all tuples.
  int hot = static_cast<int>(HashInt64(42) & (part.num_partitions() - 1));
  EXPECT_GT(part.partition_tuples(hot), kTuples * 8 / 10);
}

}  // namespace
}  // namespace pjoin
