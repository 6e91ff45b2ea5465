// Tests for the join advisor's skew estimate: the hottest value's share of a
// build key's base column, kept by the statistics histogram. Accuracy on
// Zipf keys, exactness up to the sampling cap, the strided estimate above
// it, determinism, and the advisor reading it from the catalog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "engine/advisor.h"
#include "engine/plan.h"
#include "stats/histogram.h"
#include "stats/column_catalog.h"
#include "storage/table.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace pjoin {
namespace {

Table KeyTable(const std::string& name, const std::vector<int64_t>& keys) {
  Table t(name, Schema({{name + "_key", DataType::kInt64, 0}}));
  t.Reserve(keys.size());
  for (int64_t k : keys) {
    t.column(0).AppendInt64(k);
    t.FinishRow();
  }
  return t;
}

double TrueTopShare(const std::vector<int64_t>& keys) {
  std::map<int64_t, uint64_t> counts;
  uint64_t top = 0;
  for (int64_t k : keys) top = std::max(top, ++counts[k]);
  return static_cast<double>(top) / static_cast<double>(keys.size());
}

std::vector<int64_t> ZipfKeys(uint64_t rows, uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(1000, 1.0);
  std::vector<int64_t> keys;
  keys.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    keys.push_back(static_cast<int64_t>(zipf.Next(rng)));
  }
  return keys;
}

// One key holds `heavy_share` of the rows at random positions; the others
// are distinct.
std::vector<int64_t> HeavyHitterKeys(uint64_t rows, double heavy_share,
                                     uint64_t seed) {
  Rng rng(seed);
  const auto heavy_rows =
      static_cast<uint64_t>(heavy_share * static_cast<double>(rows));
  std::vector<int64_t> keys;
  keys.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    keys.push_back(i < heavy_rows ? 0 : static_cast<int64_t>(i));
  }
  for (uint64_t i = rows - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.Below(i + 1)]);
  }
  return keys;
}

TEST(SkewHistogram, ZipfTopShareWithinTwoFold) {
  // Zipf 1.0 over 1000 keys: the hottest key holds ~13% of the rows. Below
  // the cap the histogram sees every row; above it, a strided sample.
  for (uint64_t rows : {50000ull, 500000ull}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const std::vector<int64_t> keys = ZipfKeys(rows, 42);
    const Table t = KeyTable("sz", keys);
    const EqualHeightHistogram h = EqualHeightHistogram::Build(t.column(0), 64);
    ASSERT_TRUE(h.valid());
    const double truth = TrueTopShare(keys);
    EXPECT_GE(h.top_share(), truth / 2.0);
    EXPECT_LE(h.top_share(), truth * 2.0);
  }
}

TEST(SkewHistogram, SingleHeavyHitterExactUpToCap) {
  for (uint64_t rows : {1000ull, 20000ull, 65536ull}) {
    SCOPED_TRACE("rows=" + std::to_string(rows));
    const Table t = KeyTable("sh", HeavyHitterKeys(rows, 0.5, 7));
    const EqualHeightHistogram h = EqualHeightHistogram::Build(t.column(0), 64);
    EXPECT_EQ(h.sample_rows(), rows);
    EXPECT_DOUBLE_EQ(h.top_share(), 0.5);
  }
}

TEST(SkewHistogram, StridedSampleAboveCapWithinTwoFold) {
  const uint64_t rows = 1000000;
  const Table t = KeyTable("ss", HeavyHitterKeys(rows, 0.5, 9));
  const EqualHeightHistogram h = EqualHeightHistogram::Build(t.column(0), 64);
  EXPECT_LT(h.sample_rows(), rows);
  EXPECT_GE(h.top_share(), 0.25);
  EXPECT_LE(h.top_share(), 1.0);
}

// A periodic layout must not alias with the sampling stride: 262,144 rows
// sample one row in four, so a row-0 lattice reads a hot key on every odd
// row as absent and one on every 4th row as every sampled row.
TEST(SkewHistogram, StridedSampleDoesNotAliasPeriodicLayouts) {
  const uint64_t rows = 262144;
  for (uint64_t period : {2ull, 4ull}) {
    SCOPED_TRACE("period=" + std::to_string(period));
    std::vector<int64_t> keys(rows);
    for (uint64_t i = 0; i < rows; ++i) {
      const bool hot = period == 2 ? i % 2 == 1 : i % 4 == 0;
      keys[i] = hot ? 0 : static_cast<int64_t>(1 + i);
    }
    const Table t = KeyTable("sp", keys);
    const EqualHeightHistogram h = EqualHeightHistogram::Build(t.column(0), 64);
    EXPECT_EQ(h.sample_rows(), 65536u);
    EXPECT_NEAR(h.top_share(), 1.0 / static_cast<double>(period), 0.02);
  }
}

TEST(SkewHistogram, UniqueKeysShareOneRowOfTheSample) {
  std::vector<int64_t> keys(30000);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = static_cast<int64_t>(i);
  const Table t = KeyTable("su", keys);
  const EqualHeightHistogram h = EqualHeightHistogram::Build(t.column(0), 64);
  EXPECT_DOUBLE_EQ(h.top_share(), 1.0 / 30000.0);
}

TEST(SkewHistogram, TwoCollectionsAgree) {
  const Table t = KeyTable("sd", ZipfKeys(200000, 5));
  const TableStats a = ColumnCatalog::Build(t).stats;
  const TableStats b = ColumnCatalog::Build(t).stats;
  EXPECT_EQ(a.columns[0].histogram.sample_rows(),
            b.columns[0].histogram.sample_rows());
  EXPECT_EQ(a.columns[0].histogram.top_share(),
            b.columns[0].histogram.top_share());
}

TEST(SkewHistogram, AdvisorReadsTheCatalogShare) {
  Table build = KeyTable("sa", HeavyHitterKeys(20000, 0.5, 11));
  std::vector<int64_t> probe_keys(40000);
  for (size_t i = 0; i < probe_keys.size(); ++i) {
    probe_keys[i] = static_cast<int64_t>(i % 20000);
  }
  Table probe = KeyTable("sp", probe_keys);
  auto plan = Aggregate(Join(ScanTable(&build), ScanTable(&probe),
                             {{"sa_key", "sp_key"}}),
                        {}, {AggDef::CountStar("n")});
  const std::map<int, JoinDecision> advice =
      JoinAdvisor::AdvisePlan(*plan, AdvisorOptions{});
  ASSERT_EQ(advice.size(), 1u);
  const JoinDecision& d = advice.at(0);
  const TableStats* ts = ColumnCatalog::Global().Get(build);
  ASSERT_NE(ts, nullptr);
  EXPECT_TRUE(d.skew_sampled);
  EXPECT_EQ(d.skew_sample_rows, 20000u);
  EXPECT_DOUBLE_EQ(d.est_top_share, ts->columns[0].histogram.top_share());
  EXPECT_DOUBLE_EQ(d.est_top_share, 0.5);
  ColumnCatalog::Global().Invalidate();
}

}  // namespace
}  // namespace pjoin
