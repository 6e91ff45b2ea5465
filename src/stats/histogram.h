// Equal-height histograms over numeric columns.
//
// The builder sorts a deterministic sample of the column (the full column up
// to a cap, beyond it one row per fixed stride, at a pseudo-random offset
// within the stride) and closes a bucket whenever the accumulated row count
// reaches the equal-height target — but only on a value boundary, so no
// value ever spans two buckets. Heavy values therefore
// get singleton buckets automatically (the Hyrise chunk-statistics histograms
// snap boundaries the same way), which is what makes equality estimates on
// Zipf-distributed keys accurate: the hot key's bucket stores its exact
// sampled count instead of averaging it with cold neighbours. The same walk
// keeps the longest run, the hottest value's share of the sample, which is
// the join advisor's skew estimate.
#ifndef PJOIN_STATS_HISTOGRAM_H_
#define PJOIN_STATS_HISTOGRAM_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/column.h"

namespace pjoin {

class EqualHeightHistogram {
 public:
  struct Bucket {
    double lo = 0;        // smallest value in the bucket (inclusive)
    double hi = 0;        // largest value in the bucket (inclusive)
    double rows = 0;      // rows covered, scaled to the full column
    uint64_t distinct = 0;  // distinct values seen in the sampled bucket
  };

  // Builds a histogram with at most `buckets` buckets from `col`. Non-numeric
  // columns yield an empty histogram (valid() == false).
  static EqualHeightHistogram Build(const Column& col, int buckets);

  bool valid() const { return !buckets_.empty(); }
  double min() const { return min_; }
  double max() const { return max_; }
  double total_rows() const { return total_rows_; }
  bool integral() const { return integral_; }
  const std::vector<Bucket>& buckets() const { return buckets_; }

  // Rows the histogram was built from: the full column up to 65,536 rows,
  // one row per stride, about that many, beyond it (NaNs left out).
  uint64_t sample_rows() const { return sample_rows_; }

  // Share of the sample held by its most frequent value, in (0, 1]: exact
  // up to the sampling cap, a strided estimate beyond it.
  double top_share() const { return top_share_; }

  // Estimated fraction of rows with value == v, in [0, 1]. Within a bucket
  // the rows are assumed evenly spread over its distinct values; a singleton
  // bucket answers exactly (up to sampling).
  double EqFraction(double v) const;

  // Estimated fraction of rows with value <= v (inclusive). Integral columns
  // interpolate on the dense value count (hi - lo + 1); floating-point
  // columns interpolate continuously.
  double LeFraction(double v) const;

  // Fraction in [lo, hi], both inclusive.
  double BetweenFraction(double lo, double hi) const;

  // Stable textual form (used by the determinism tests).
  std::string DebugString() const;

 private:
  std::vector<Bucket> buckets_;
  double min_ = 0;
  double max_ = 0;
  double total_rows_ = 0;
  uint64_t sample_rows_ = 0;
  double top_share_ = 0;
  bool integral_ = true;
};

}  // namespace pjoin

#endif  // PJOIN_STATS_HISTOGRAM_H_
