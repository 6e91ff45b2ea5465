#include "engine/cost_profile.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <limits>
#include <vector>

#include "exec/thread_pool.h"
#include "filter/blocked_bloom.h"
#include "hash_table/bucket_chain.h"
#include "join/hash_join.h"
#include "kernels/kernels.h"
#include "partition/radix_partitioner.h"
#include "util/cpu_info.h"
#include "util/stopwatch.h"

namespace pjoin {

namespace {

constexpr int kReps = 3;  // each probe keeps the fastest repetition
constexpr uint64_t kGolden = 0x9e3779b97f4a7c15ULL;
// Memory the radix probes use at most: their per-tuple costs do not depend
// on the data size once the partitions and the filter are past warm-up.
constexpr uint64_t kPartitionProbeBytes = 4 << 20;
// Pass-1 fan-out bits of the scatter probe (the partitioner's typical
// single-pass fan-out on a multi-megabyte build).
constexpr int kScatterBits = 6;

// Runs `fn` kReps times and returns the fastest run in nanoseconds per item.
template <typename Fn>
double MinNsPerItem(uint64_t items, Fn&& fn) {
  double best = std::numeric_limits<double>::max();
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    fn();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best * 1e9 / static_cast<double>(std::max<uint64_t>(1, items));
}

// The i-th key of a pseudo-random walk over 1..2^log2, offset by `base`.
int64_t WalkKey(uint64_t i, int log2, int64_t base) {
  return base + 1 + static_cast<int64_t>((i * kGolden) >> (64 - log2));
}

// Counts the batches the probe emits (count-only output has no fields).
class CountSink : public Operator {
 public:
  explicit CountSink(const RowLayout* layout) : layout_(layout) {}
  void Consume(Batch& batch, ThreadContext&) override { rows += batch.size; }
  const RowLayout* OutputLayout() const override { return layout_; }
  uint64_t rows = 0;

 private:
  const RowLayout* layout_;
};

// BHJ at a table of `table_bytes`: HashJoin's build sink and directory
// build over n keys, then HashJoinProbe over hit and miss keys. n is the
// largest power of two whose entries (24 B) and directory (2 slots of 8 B
// each) fit the table bytes.
BhjCosts MeasureBhj(uint64_t table_bytes) {
  const int log2 =
      std::max(12, static_cast<int>(std::bit_width(table_bytes / 40)) - 1);
  const uint64_t n = uint64_t{1} << log2;
  const uint64_t probes = std::clamp<uint64_t>(n, 1 << 16, 1 << 19);

  const RowLayout keys({RowField{"k", DataType::kInt64, 8, 0}});
  const RowLayout none(std::vector<RowField>{});
  JoinProjection projection;
  projection.output = &none;
  projection.build = &keys;
  projection.probe = &keys;
  ThreadPool pool(1);
  ExecContext exec(&pool);
  ThreadContext ctx;
  ctx.bytes = &exec.bytes(0);
  ctx.exec = &exec;

  std::vector<int64_t> buf(kBatchCapacity);
  Batch batch{&keys, reinterpret_cast<std::byte*>(buf.data()), 0};
  // Feeds `count` keys key(i) through `op` batch by batch.
  auto feed = [&](Operator& op, uint64_t count, auto&& key) {
    for (uint64_t i = 0; i < count; i += kBatchCapacity) {
      batch.size = static_cast<uint32_t>(
          std::min<uint64_t>(kBatchCapacity, count - i));
      for (uint32_t j = 0; j < batch.size; ++j) buf[j] = key(i + j);
      op.Consume(batch, ctx);
    }
  };
  auto dense = [](uint64_t i) { return static_cast<int64_t>(i + 1); };

  BhjCosts c;
  c.build_ns = MinNsPerItem(n, [&] {
    HashJoin join(JoinKind::kInner, &keys, {0}, &keys, {0}, projection);
    HashJoinBuildSink sink(&join);
    feed(sink, n, dense);
    join.table().Build(pool);
  });

  HashJoin join(JoinKind::kInner, &keys, {0}, &keys, {0}, projection);
  HashJoinBuildSink sink(&join);
  feed(sink, n, dense);
  join.table().Build(pool);
  CountSink counted(&none);
  HashJoinProbe probe(&join);
  probe.set_next(&counted);
  probe.Prepare(exec);
  probe.Open(ctx);
  for (const bool hit : {true, false}) {
    const int64_t base = hit ? 0 : static_cast<int64_t>(n);
    const double ns = MinNsPerItem(probes, [&] {
      feed(probe, probes, [&](uint64_t i) { return WalkKey(i, log2, base); });
    });
    (hit ? c.probe_ns : c.miss_ns) = ns;
  }
  probe.Close(ctx);
  return c;
}

// Scatter per tuple at padded stride `stride`: key hashing plus
// RadixPartitioner::AddBatch into 2^kScatterBits partitions, about a
// quarter of `bytes` of tuples.
double MeasureScatter(uint32_t stride, uint64_t bytes) {
  const uint32_t row = stride - 8;
  const uint64_t tuples = std::max<uint64_t>(kBatchCapacity, bytes / 4 / stride);
  std::vector<RowField> fields = {RowField{"k", DataType::kInt64, 8, 0}};
  if (row > 8) fields.push_back(RowField{"pad", DataType::kChar, row - 8, 8});
  const RowLayout layout(std::move(fields));
  const KeySpec key(&layout, {0});
  std::vector<std::byte> rows(static_cast<size_t>(kBatchCapacity) * row);
  uint64_t hashes[kBatchCapacity];
  return MinNsPerItem(tuples, [&] {
    RadixConfig config;
    config.row_stride = row;
    // The fan-out's first chunks (16 KiB each) stay within a quarter of
    // the bytes.
    config.bits1 = std::clamp(
        static_cast<int>(std::bit_width(bytes / (64 << 10))) - 1, 1,
        kScatterBits);
    config.bits2 = 0;
    RadixPartitioner part(config);
    for (uint64_t i = 0; i < tuples; i += kBatchCapacity) {
      const uint32_t n = static_cast<uint32_t>(
          std::min<uint64_t>(kBatchCapacity, tuples - i));
      for (uint32_t j = 0; j < n; ++j) {
        const int64_t k = static_cast<int64_t>(i + j + 1);
        std::memcpy(&rows[static_cast<size_t>(j) * row], &k, 8);
      }
      HashRowsBatch(key, rows.data(), row, n, hashes);
      part.AddBatch(0, hashes, rows.data(), nullptr, n, nullptr);
    }
    part.FlushThread(0, nullptr);
  });
}

// Bucket chains over one L2-sized partition of 16-byte [hash][key] tuples,
// gathered from 1 Ki-tuple spans as an in-place partition's chunks are.
void MeasureChains(uint64_t bytes, PartitionCosts* c) {
  constexpr uint32_t kStride = 16;
  constexpr int kShift = 7;  // hash bits below belong to the radix bits
  const uint64_t l2 = static_cast<uint64_t>(GetCpuInfo().l2_bytes);
  // The partition sizing of ChooseRadixBits: tuple plus 24 B of table slot
  // in half the L2, within a fifth of the byte cap (tuples plus chains).
  const int log2 = std::max(
      10, static_cast<int>(std::bit_width(std::min(l2 / 2, bytes / 5) /
                                          (kStride + 24))) -
              1);
  const uint64_t m = uint64_t{1} << log2;
  std::vector<std::byte> build(m * kStride);
  for (uint64_t i = 0; i < m; ++i) {
    const int64_t k = static_cast<int64_t>(i + 1);
    const uint64_t h = HashInt64(static_cast<uint64_t>(k));
    std::memcpy(&build[i * kStride], &h, 8);
    std::memcpy(&build[i * kStride + 8], &k, 8);
  }
  BucketChainTable table;
  auto link = [&] {
    table.Reset(m, kStride, kShift);
    for (uint64_t off = 0; off < m; off += kBatchCapacity) {
      table.Append(&build[off * kStride],
                   std::min<uint64_t>(kBatchCapacity, m - off));
    }
  };
  c->chain_build_ns = MinNsPerItem(m, link);

  const uint64_t probes = 4 * m;
  uint64_t hashes[kBatchCapacity];
  int64_t keys[kBatchCapacity];
  bool matched[kBatchCapacity];
  uint64_t found = 0;
  c->chain_probe_ns = MinNsPerItem(probes, [&] {
    for (uint64_t i = 0; i < probes; i += kBatchCapacity) {
      for (uint32_t j = 0; j < kBatchCapacity; ++j) {
        keys[j] = WalkKey(i + j, log2, 0);
        hashes[j] = HashInt64(static_cast<uint64_t>(keys[j]));
      }
      std::memset(matched, 0, sizeof(matched));
      table.ProbeBatch(
          hashes, kBatchCapacity, false, matched,
          [&](uint32_t j, const std::byte* r) {
            return std::memcmp(r, &keys[j], 8) == 0;
          },
          [&](uint32_t, uint32_t) { ++found; });
    }
  });
}

// Bloom filter over bytes / 8 keys (16 bits per key, at most half the bytes).
void MeasureBloom(uint64_t bytes, PartitionCosts* c) {
  const uint64_t keys = std::max<uint64_t>(kBatchCapacity, bytes / 8);
  BlockedBloomFilter bloom;
  c->bloom_build_ns = MinNsPerItem(keys, [&] {
    bloom.Resize(keys);
    for (uint64_t k = 1; k <= keys; ++k) bloom.InsertUnsynchronized(HashInt64(k));
  });
  const uint64_t probes = 4 * keys;
  uint64_t hashes[kBatchCapacity];
  uint64_t bitmap[kBatchCapacity / 64];
  const int log2 = static_cast<int>(std::bit_width(keys)) - 1;
  c->bloom_probe_ns = MinNsPerItem(probes, [&] {
    for (uint64_t i = 0; i < probes; i += kBatchCapacity) {
      for (uint32_t j = 0; j < kBatchCapacity; ++j) {
        hashes[j] =
            HashInt64(static_cast<uint64_t>(WalkKey(i + j, log2 + 1, 0)));
      }
      ActiveKernels().bloom_probe(bloom.blocks(), bloom.block_mask(), hashes,
                                  kBatchCapacity, bitmap);
    }
  });
}

PartitionCosts MeasurePartition(uint64_t cap_bytes) {
  const uint64_t bytes = std::min(cap_bytes, kPartitionProbeBytes);
  PartitionCosts c;
  const uint32_t strides[] = {16, 32, 64, 128};
  for (size_t i = 0; i < c.scatter_ns.size(); ++i) {
    c.scatter_ns[i] = MeasureScatter(strides[i], bytes);
  }
  MeasureChains(bytes, &c);
  MeasureBloom(bytes, &c);
  return c;
}

// Size-class index of a table of `ht_bytes` (clamped to the classes).
int ClassOf(uint64_t ht_bytes) {
  const int log2 =
      static_cast<int>(std::bit_width(std::max<uint64_t>(1, ht_bytes))) - 1;
  return std::clamp(log2, CostProfile::kMinClassLog2,
                    CostProfile::kMaxClassLog2) -
         CostProfile::kMinClassLog2;
}

double ElapsedMs(const Stopwatch& watch) {
  return watch.ElapsedSeconds() * 1e3;
}

}  // namespace

double PartitionCosts::ScatterNs(uint32_t stride) const {
  if (stride <= 16) return scatter_ns[0];
  if (stride <= 32) return scatter_ns[1];
  if (stride <= 64) return scatter_ns[2];
  // Unbuffered wide tuples: scale the 128-byte probe by the bytes moved.
  return scatter_ns[3] * static_cast<double>(stride) / 128.0;
}

CostProfile::CostProfile(const std::array<BhjCosts, kClasses>& bhj,
                         const PartitionCosts& partition)
    : partition_(partition) {
  for (int k = 0; k < kClasses; ++k) {
    classes_[k].costs = bhj[k];
    classes_[k].done.store(true, std::memory_order_relaxed);
  }
  partition_done_.store(true, std::memory_order_relaxed);
}

BhjCosts CostProfile::Bhj(uint64_t ht_bytes, uint64_t cap_bytes,
                          double* calibration_ms) const {
  const int k = ClassOf(std::min(ht_bytes, cap_bytes));
  SizeClass& sc = classes_[k];
  if (!sc.done.load(std::memory_order_acquire)) {
    std::call_once(sc.once, [&] {
      Stopwatch watch;
      sc.costs = MeasureBhj(std::min<uint64_t>(
          uint64_t{1} << (kMinClassLog2 + k), std::max<uint64_t>(cap_bytes, 1)));
      calibrations_.fetch_add(1, std::memory_order_relaxed);
      sc.done.store(true, std::memory_order_release);
      if (calibration_ms != nullptr) *calibration_ms += ElapsedMs(watch);
    });
  }
  // A larger table is never cheaper to probe than a smaller one: noise in
  // the probes must not make the model favor bigger tables. (The build's
  // fixed costs weigh most on the smallest tables, so it is not clamped.)
  BhjCosts c = sc.costs;
  for (int j = 0; j < k; ++j) {
    if (!classes_[j].done.load(std::memory_order_acquire)) continue;
    c.probe_ns = std::max(c.probe_ns, classes_[j].costs.probe_ns);
    c.miss_ns = std::max(c.miss_ns, classes_[j].costs.miss_ns);
  }
  return c;
}

const PartitionCosts& CostProfile::Partition(uint64_t cap_bytes,
                                             double* calibration_ms) const {
  if (!partition_done_.load(std::memory_order_acquire)) {
    std::call_once(partition_once_, [&] {
      Stopwatch watch;
      partition_ = MeasurePartition(cap_bytes);
      calibrations_.fetch_add(1, std::memory_order_relaxed);
      partition_done_.store(true, std::memory_order_release);
      if (calibration_ms != nullptr) *calibration_ms += ElapsedMs(watch);
    });
  }
  return partition_;
}

const CostProfile& CostProfile::Process() {
  static const CostProfile* profile = new CostProfile();
  return *profile;
}

const CostProfile& CostProfile::Reference() {
  // Process() on a 4-vCPU Intel Xeon (AVX-512, 2 MiB L2 per core), rounded:
  // {build, probe hit, probe miss} ns per tuple for BHJ tables of 256 KiB
  // to 64 MiB, then the radix building blocks.
  static const CostProfile* profile = new CostProfile(
      {{
          {18, 10, 2},      // 256 KiB
          {17.5, 10, 2},    // 512 KiB
          {17.5, 10, 2},    // 1 MiB
          {17, 11, 2.2},    // 2 MiB
          {17.5, 13, 2.3},  // 4 MiB
          {18, 15, 2.8},    // 8 MiB
          {19, 22, 3.6},    // 16 MiB
          {19, 28, 6.6},    // 32 MiB
          {36, 34, 9.5},    // 64 MiB
      }},
      PartitionCosts{{7.7, 10.5, 18, 22}, 2.5, 5.1, 3.5, 1.3});
  return *profile;
}

}  // namespace pjoin
