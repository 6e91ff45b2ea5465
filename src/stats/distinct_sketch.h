// Distinct-count estimation: exact up to a cap, HyperLogLog beyond it.
//
// Small domains (dimension keys, flag columns, every test fixture) stay in
// an exact hash set, so their reported counts — and everything estimated
// from them — are deterministic integers. Once the set outgrows the cap it
// is dropped and the HyperLogLog registers, maintained from the start, take
// over with ~1.6% standard error (2^12 registers).
#ifndef PJOIN_STATS_DISTINCT_SKETCH_H_
#define PJOIN_STATS_DISTINCT_SKETCH_H_

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "storage/column.h"

namespace pjoin {

class DistinctSketch {
 public:
  DistinctSketch();

  // Builds a sketch over every row of `col` (all types; char columns hash
  // their padded bytes).
  static DistinctSketch Build(const Column& col);

  // The hash Build feeds for row `row` of `col`.
  static uint64_t HashCell(const Column& col, uint64_t row);

  // Feed one pre-hashed value.
  void AddHash(uint64_t hash);

  // Estimated number of distinct values. Exact while the exact set is alive.
  uint64_t Estimate() const;

  bool exact() const { return exact_alive_; }

 private:
  static constexpr int kPrecision = 12;  // 4096 registers
  static constexpr uint64_t kExactCap = 8192;

  std::vector<uint8_t> registers_;
  std::unordered_set<uint64_t> exact_;
  bool exact_alive_ = true;
};

}  // namespace pjoin

#endif  // PJOIN_STATS_DISTINCT_SKETCH_H_
