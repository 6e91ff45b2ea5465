// Calibrated per-tuple costs of the join building blocks, in nanoseconds.
//
// The join advisor (engine/advisor.h) prices BHJ, RJ and BRJ in wall time
// rather than modeled bytes: how many nanoseconds one tuple costs in each
// building block, measured on this host by short probes of the engine's
// own code, not by microkernels that could drift from it:
//   * BHJ build and probe per tuple at a table-size class: HashJoin's build
//     sink and ChainingHashTable::Build, then HashJoinProbe's batched probe
//     with count-only emission, for keys in the table (hits) and not in it
//     (misses, which the directory's tags usually settle);
//   * radix pass-1 scatter per tuple by padded tuple stride (key hash plus
//     RadixPartitioner::AddBatch);
//   * bucket-chain build and probe per tuple in an L2-sized partition
//     (BucketChainTable, the partition join's table);
//   * Bloom build and probe per key (BlockedBloomFilter and the active
//     bloom_probe kernel).
//
// Probes run lazily, on the first decision that needs them, single-threaded
// on the calling thread; each keeps the minimum of three repetitions. The
// BHJ probe is memoized per power-of-two table size, floored to the
// decision's own table estimate and capped at 64 MiB: a larger table uses
// the cap's numbers, which biases toward the BHJ ("when in doubt, do not
// partition"). A probe never holds more memory than the caller's byte cap,
// the table the join is about to allocate anyway, and frees it before
// returning. Racing first decisions calibrate a size class once.
//
// Reference() holds committed values, so tests and goldens decide the same
// on every host.
#ifndef PJOIN_ENGINE_COST_PROFILE_H_
#define PJOIN_ENGINE_COST_PROFILE_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>

namespace pjoin {

// Single-threaded BHJ nanoseconds per tuple at one table size.
struct BhjCosts {
  double build_ns = 0;  // materialize one entry and link it into the table
  double probe_ns = 0;  // probe one tuple whose key is in the table
  double miss_ns = 0;   // probe one tuple whose key is not
};

// Single-threaded nanoseconds of the radix join's building blocks.
struct PartitionCosts {
  // Pass-1 scatter per tuple at padded tuple strides 16, 32, 64 and 128
  // bytes (the last one wider than a cache line, written without
  // write-combine buffers).
  std::array<double, 4> scatter_ns{};
  double chain_build_ns = 0;  // gather and link one build tuple
  double chain_probe_ns = 0;  // probe one tuple in an L2-sized partition
  double bloom_build_ns = 0;  // insert one key
  double bloom_probe_ns = 0;  // test one key

  // Scatter ns per tuple at a padded partition-tuple stride.
  double ScatterNs(uint32_t stride) const;
};

class CostProfile {
 public:
  // BHJ size classes: 256 KiB (the smallest table a probe can build) up to
  // the 64 MiB cap.
  static constexpr int kMinClassLog2 = 18;
  static constexpr int kMaxClassLog2 = 26;
  static constexpr int kClasses = kMaxClassLog2 - kMinClassLog2 + 1;

  // The process's calibrated profile.
  static const CostProfile& Process();
  // Committed reference values; never calibrates.
  static const CostProfile& Reference();

  // An empty profile that calibrates on first use.
  CostProfile() = default;
  CostProfile(const CostProfile&) = delete;
  CostProfile& operator=(const CostProfile&) = delete;

  // BHJ costs for a table of `ht_bytes`: the size class at or below
  // min(ht_bytes, 64 MiB), never cheaper than a smaller calibrated class.
  // A first use calibrates the class within `cap_bytes` of memory (the
  // smallest class needs 256 KiB whatever the cap) and adds its wall time
  // to *calibration_ms.
  BhjCosts Bhj(uint64_t ht_bytes, uint64_t cap_bytes,
               double* calibration_ms) const;

  // The radix building blocks; calibrated within `cap_bytes` on first use.
  const PartitionCosts& Partition(uint64_t cap_bytes,
                                  double* calibration_ms) const;

  // Probes this profile has run (each size class and the radix set count
  // one each).
  int calibrations() const {
    return calibrations_.load(std::memory_order_relaxed);
  }

 private:
  struct SizeClass {
    std::once_flag once;
    std::atomic<bool> done{false};
    BhjCosts costs;
  };

  // Builds a profile whose values are all set (Reference()).
  CostProfile(const std::array<BhjCosts, kClasses>& bhj,
              const PartitionCosts& partition);

  mutable std::array<SizeClass, kClasses> classes_;
  mutable std::once_flag partition_once_;
  mutable std::atomic<bool> partition_done_{false};
  mutable PartitionCosts partition_;
  mutable std::atomic<int> calibrations_{0};
};

}  // namespace pjoin

#endif  // PJOIN_ENGINE_COST_PROFILE_H_
