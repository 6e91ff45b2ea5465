#include "stats/histogram.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/hash.h"

namespace pjoin {
namespace {

// Sampling cap shared with the scan-range estimator: full scan below it,
// one row per stride above it (deterministic, order-insensitive).
constexpr uint64_t kHistogramSampleCap = 65536;

bool NumericValue(const Column& col, uint64_t row, double* out) {
  switch (col.type()) {
    case DataType::kInt64:
      *out = static_cast<double>(col.GetInt64(row));
      return true;
    case DataType::kInt32:
    case DataType::kDate:
      *out = static_cast<double>(col.GetInt32(row));
      return true;
    case DataType::kFloat64:
      *out = col.GetFloat64(row);
      return true;
    default:
      return false;
  }
}

}  // namespace

EqualHeightHistogram EqualHeightHistogram::Build(const Column& col,
                                                int buckets) {
  EqualHeightHistogram h;
  const uint64_t n = col.size();
  if (n == 0 || buckets < 1) return h;

  double probe;
  if (!NumericValue(col, 0, &probe)) return h;
  h.integral_ = col.type() != DataType::kFloat64;

  const uint64_t stride = n <= kHistogramSampleCap ? 1 : n / kHistogramSampleCap;
  std::vector<double> sample;
  sample.reserve(n / stride + 1);
  for (uint64_t start = 0; start < n; start += stride) {
    // A pseudo-random offset within each stride, fixed by the stride's
    // index: a row-0 lattice would alias with any periodic layout (a hot key
    // on every other row reads as absent, or as every sampled row).
    const uint64_t span = std::min(stride, n - start);
    const uint64_t row = start + HashInt64(start / stride) % span;
    double v;
    NumericValue(col, row, &v);
    // NaN has no place in an order: it would break the sort and never end
    // the equal-run walk below.
    if (!std::isnan(v)) sample.push_back(v);
  }
  if (sample.empty()) return h;
  std::sort(sample.begin(), sample.end());

  const double scale = static_cast<double>(n) / sample.size();
  const uint64_t target = (sample.size() + buckets - 1) / buckets;

  // Walk runs of equal values; close a bucket once it holds >= target sampled
  // rows. Boundaries always land between runs, so each value lives in exactly
  // one bucket and a heavy value becomes a singleton bucket.
  Bucket cur;
  uint64_t cur_rows = 0;
  uint64_t top_run = 0;
  size_t i = 0;
  while (i < sample.size()) {
    size_t j = i;
    while (j < sample.size() && sample[j] == sample[i]) ++j;
    const uint64_t run = j - i;
    top_run = std::max(top_run, run);
    if (cur_rows == 0) cur.lo = sample[i];
    cur.hi = sample[i];
    cur.distinct += 1;
    cur_rows += run;
    if (cur_rows >= target) {
      cur.rows = cur_rows * scale;
      h.buckets_.push_back(cur);
      cur = Bucket();
      cur_rows = 0;
    }
    i = j;
  }
  if (cur_rows > 0) {
    cur.rows = cur_rows * scale;
    h.buckets_.push_back(cur);
  }

  h.sample_rows_ = sample.size();
  h.top_share_ = static_cast<double>(top_run) / sample.size();
  h.min_ = h.buckets_.front().lo;
  h.max_ = h.buckets_.back().hi;
  for (const Bucket& b : h.buckets_) h.total_rows_ += b.rows;
  return h;
}

double EqualHeightHistogram::EqFraction(double v) const {
  if (!valid() || v < min_ || v > max_ || total_rows_ <= 0) return 0.0;
  for (const Bucket& b : buckets_) {
    if (v < b.lo) return 0.0;  // fell in a gap between buckets
    if (v <= b.hi) {
      const double per_value = b.rows / static_cast<double>(b.distinct);
      return per_value / total_rows_;
    }
  }
  return 0.0;
}

double EqualHeightHistogram::LeFraction(double v) const {
  if (!valid() || total_rows_ <= 0) return 0.0;
  if (v < min_) return 0.0;
  if (v >= max_) return 1.0;
  double rows = 0;
  for (const Bucket& b : buckets_) {
    if (b.hi <= v) {
      rows += b.rows;
      continue;
    }
    if (v >= b.lo) {
      // Straddling bucket: interpolate on the dense value count for integer
      // domains, continuously for floating point.
      double frac;
      if (integral_) {
        frac = (std::floor(v) - b.lo + 1.0) / (b.hi - b.lo + 1.0);
      } else {
        frac = b.hi > b.lo ? (v - b.lo) / (b.hi - b.lo) : 1.0;
      }
      if (frac < 0) frac = 0;
      if (frac > 1) frac = 1;
      rows += b.rows * frac;
    }
    break;
  }
  const double f = rows / total_rows_;
  return f < 0 ? 0 : (f > 1 ? 1 : f);
}

double EqualHeightHistogram::BetweenFraction(double lo, double hi) const {
  if (!valid() || hi < lo) return 0.0;
  const double upper = LeFraction(hi);
  const double lower = integral_ ? LeFraction(lo - 1.0) : LeFraction(lo);
  const double f = upper - lower;
  return f < 0 ? 0 : f;
}

std::string EqualHeightHistogram::DebugString() const {
  std::string out;
  char line[128];
  for (const Bucket& b : buckets_) {
    std::snprintf(line, sizeof(line), "[%.6g,%.6g] rows=%.2f distinct=%llu\n",
                  b.lo, b.hi, b.rows,
                  static_cast<unsigned long long>(b.distinct));
    out += line;
  }
  return out;
}

}  // namespace pjoin
