#include "stats/distinct_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>

#include "util/hash.h"

namespace pjoin {

uint64_t DistinctSketch::HashCell(const Column& col, uint64_t row) {
  switch (col.type()) {
    case DataType::kInt64:
      return HashInt64(static_cast<uint64_t>(col.GetInt64(row)));
    case DataType::kInt32:
    case DataType::kDate:
      return HashInt64(static_cast<uint64_t>(
          static_cast<uint32_t>(col.GetInt32(row))));
    case DataType::kFloat64: {
      uint64_t bits;
      double v = col.GetFloat64(row);
      std::memcpy(&bits, &v, 8);
      return HashInt64(bits);
    }
    default:
      return HashBytes(col.Raw(row), col.width(), /*seed=*/0x5157u);
  }
}

DistinctSketch::DistinctSketch() : registers_(1u << kPrecision, 0) {}

DistinctSketch DistinctSketch::Build(const Column& col) {
  DistinctSketch s;
  const uint64_t n = col.size();
  for (uint64_t row = 0; row < n; ++row) s.AddHash(HashCell(col, row));
  return s;
}

void DistinctSketch::AddHash(uint64_t hash) {
  const uint64_t m = 1u << kPrecision;
  const uint64_t idx = hash & (m - 1);
  const uint64_t rest = hash >> kPrecision;
  // Rank of the first set bit in the remaining 52 bits, 1-based; an all-zero
  // remainder ranks past the end.
  const uint8_t rank = static_cast<uint8_t>(
      std::min(std::countr_zero(rest) + 1, 64 - kPrecision + 1));
  if (rank > registers_[idx]) registers_[idx] = rank;
  if (exact_alive_) {
    exact_.insert(hash);
    if (exact_.size() > kExactCap) {
      exact_.clear();
      exact_alive_ = false;
    }
  }
}

uint64_t DistinctSketch::Estimate() const {
  if (exact_alive_) return exact_.size();
  const double m = static_cast<double>(registers_.size());
  const double alpha = 0.7213 / (1.0 + 1.079 / m);
  double sum = 0;
  uint64_t zeros = 0;
  for (uint8_t r : registers_) {
    sum += std::ldexp(1.0, -static_cast<int>(r));
    if (r == 0) ++zeros;
  }
  double est = alpha * m * m / sum;
  if (est <= 2.5 * m && zeros > 0) {
    est = m * std::log(m / static_cast<double>(zeros));
  }
  return static_cast<uint64_t>(std::llround(est));
}

}  // namespace pjoin
