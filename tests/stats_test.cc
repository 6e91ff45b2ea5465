// Tests for the table-statistics subsystem (src/stats/).
//
// Claim structure:
//   * Histogram accuracy: equal-height histograms keep the q-error of range
//     and equality estimates within 2x on uniform, Zipf-distributed, and
//     TPC-H columns (the advisor's mispredict flag fires at 2x).
//   * Sketch accuracy: the distinct sketch is exact below its exact-set cap
//     and within 5% above it.
//   * Determinism: building a table's catalog entry twice yields identical
//     statistics, whatever PJOIN_ENCODING said at the first build, so
//     EXPLAIN goldens cannot flap; racing first touches build once.
//   * Estimator wiring: scan and join cardinality estimates use the catalog,
//     multi-predicate conjunctions damp correlated columns, and inputs
//     without statistics (computed keys, empty tables) keep the plain
//     heuristics.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <latch>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/plan.h"
#include "engine/predicate.h"
#include "stats/column_catalog.h"
#include "stats/distinct_sketch.h"
#include "stats/histogram.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "tpch/gen.h"
#include "util/env.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace pjoin {
namespace {

Table IntTable(const std::string& name, const std::string& col,
               const std::vector<int64_t>& values) {
  Table t(name, Schema({{col, DataType::kInt64, 0}}));
  t.Reserve(values.size());
  for (int64_t v : values) {
    t.column(0).AppendInt64(v);
    t.FinishRow();
  }
  return t;
}

// Symmetric q-error of an estimated fraction against the true fraction.
double QError(double est, double actual) {
  est = std::max(est, 1e-9);
  actual = std::max(actual, 1e-9);
  return std::max(est / actual, actual / est);
}

// ---- Histogram accuracy --------------------------------------------------

TEST(StatsHistogram, UniformRangeAndEqualityWithinQError2) {
  Rng rng(41);
  const uint64_t n = 100000;
  const int64_t universe = 50000;
  std::vector<int64_t> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<int64_t>(rng.Below(universe)));
  }
  Table t = IntTable("sh_uniform", "v", values);
  EqualHeightHistogram h = EqualHeightHistogram::Build(t.column(0), 64);
  ASSERT_TRUE(h.valid());

  for (int64_t cut : {100l, 5000l, 25000l, 49000l}) {
    const double actual =
        static_cast<double>(std::count_if(
            values.begin(), values.end(),
            [cut](int64_t v) { return v <= cut; })) /
        static_cast<double>(n);
    EXPECT_LE(QError(h.LeFraction(static_cast<double>(cut)), actual), 2.0)
        << "cut=" << cut;
  }
  for (int64_t lo : {1000l, 30000l}) {
    const int64_t hi = lo + 4000;
    const double actual =
        static_cast<double>(std::count_if(
            values.begin(), values.end(),
            [lo, hi](int64_t v) { return v >= lo && v <= hi; })) /
        static_cast<double>(n);
    EXPECT_LE(QError(h.BetweenFraction(static_cast<double>(lo),
                                       static_cast<double>(hi)),
                     actual),
              2.0)
        << "lo=" << lo;
  }
}

TEST(StatsHistogram, ZipfHotKeysGetSingletonBuckets) {
  Rng rng(43);
  ZipfGenerator zipf(10000, 1.1);
  const uint64_t n = 200000;
  std::vector<int64_t> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    values.push_back(static_cast<int64_t>(zipf.Next(rng)));
  }
  Table t = IntTable("sh_zipf", "v", values);
  EqualHeightHistogram h = EqualHeightHistogram::Build(t.column(0), 64);
  ASSERT_TRUE(h.valid());

  // The hottest keys dominate whole buckets (value-boundary snapping), so
  // their equality estimates stay within the q-error bound instead of being
  // averaged into the cold tail.
  for (int64_t hot : {1l, 2l, 3l, 5l, 10l}) {
    const double actual =
        static_cast<double>(std::count(values.begin(), values.end(), hot)) /
        static_cast<double>(n);
    EXPECT_LE(QError(h.EqFraction(static_cast<double>(hot)), actual), 2.0)
        << "key=" << hot;
  }
  // Range over the hot head: dominated by exactly-kept heavy buckets.
  const double actual_head =
      static_cast<double>(std::count_if(values.begin(), values.end(),
                                        [](int64_t v) { return v <= 10; })) /
      static_cast<double>(n);
  EXPECT_LE(QError(h.LeFraction(10.0), actual_head), 2.0);
}

TEST(StatsHistogram, TpchColumnsWithinQError2) {
  auto db = GenerateTpch(0.02);
  struct Probe {
    const Table* table;
    const char* column;
    double le_cut;
  };
  const Probe probes[] = {
      {&db->lineitem, "l_quantity", 25.0},
      {&db->lineitem, "l_partkey", 2000.0},
      {&db->orders, "o_custkey", 1500.0},
      {&db->part, "p_size", 25.0},
  };
  for (const Probe& p : probes) {
    SCOPED_TRACE(p.column);
    const int col = p.table->schema().IndexOf(p.column);
    EqualHeightHistogram h =
        EqualHeightHistogram::Build(p.table->column(col), 64);
    ASSERT_TRUE(h.valid());
    uint64_t hits = 0;
    const Column& c = p.table->column(col);
    for (uint64_t r = 0; r < p.table->num_rows(); ++r) {
      const double v = c.type() == DataType::kFloat64
                           ? c.GetFloat64(r)
                           : static_cast<double>(c.GetInt64(r));
      if (v <= p.le_cut) ++hits;
    }
    const double actual = static_cast<double>(hits) /
                          static_cast<double>(p.table->num_rows());
    EXPECT_LE(QError(h.LeFraction(p.le_cut), actual), 2.0);
  }
}

// ---- Distinct sketch -----------------------------------------------------

TEST(StatsHistogram, NaNValuesAreLeftOut) {
  Table t("sh_nan", Schema({{"f", DataType::kFloat64, 0}}));
  for (double f : {std::nan(""), 1.0, 2.0, std::nan(""), 3.0}) {
    t.column(0).AppendFloat64(f);
    t.FinishRow();
  }
  EqualHeightHistogram h = EqualHeightHistogram::Build(t.column(0), 64);
  ASSERT_TRUE(h.valid());
  EXPECT_EQ(h.min(), 1.0);
  EXPECT_EQ(h.max(), 3.0);
}

TEST(StatsSketch, ExactBelowCap) {
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 5000; ++i) values.push_back(i % 1234);
  Table t = IntTable("ss_exact", "v", values);
  DistinctSketch s = DistinctSketch::Build(t.column(0));
  EXPECT_TRUE(s.exact());
  EXPECT_EQ(s.Estimate(), 1234u);
}

TEST(StatsSketch, WithinFivePercentAboveCap) {
  Rng rng(47);
  const uint64_t n = 400000;
  const uint64_t universe = 150000;
  std::vector<int64_t> values;
  std::vector<bool> seen(universe, false);
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = rng.Below(universe);
    seen[v] = true;
    values.push_back(static_cast<int64_t>(v));
  }
  const uint64_t truth =
      static_cast<uint64_t>(std::count(seen.begin(), seen.end(), true));
  Table t = IntTable("ss_hll", "v", values);
  DistinctSketch s = DistinctSketch::Build(t.column(0));
  EXPECT_FALSE(s.exact());
  const double est = static_cast<double>(s.Estimate());
  EXPECT_LE(QError(est, static_cast<double>(truth)), 1.05)
      << "est=" << est << " truth=" << truth;
}

// ---- Catalog determinism and gating --------------------------------------

TEST(StatsCatalogTest, CollectionIsDeterministic) {
  Rng rng(53);
  std::vector<int64_t> values;
  for (int i = 0; i < 30000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Below(7000)));
  }
  Table t = IntTable("sc_det", "v", values);
  TableStats a = ColumnCatalog::Build(t).stats;
  TableStats b = ColumnCatalog::Build(t).stats;
  ASSERT_EQ(a.columns.size(), b.columns.size());
  for (size_t c = 0; c < a.columns.size(); ++c) {
    EXPECT_EQ(a.columns[c].distinct, b.columns[c].distinct);
    EXPECT_EQ(a.columns[c].histogram.DebugString(),
              b.columns[c].histogram.DebugString());
  }
}

// 40,000 CHAR(16) rows over 30,011 values: beyond the sketch's exact cap,
// where an estimate and the dictionary's exact count differ. The entry must
// not depend on whether encoding was switched on at the first touch.
TEST(StatsCatalogTest, StatisticsIndependentOfEncodingSwitch) {
  Table t("sc_switch", Schema({{"c", DataType::kChar, 16}}));
  t.Reserve(40000);
  for (int64_t i = 0; i < 40000; ++i) {
    t.column(0).AppendString("v" + std::to_string(i % 30011));
    t.FinishRow();
  }
  ColumnCatalog& cat = ColumnCatalog::Global();
  cat.Invalidate();
  uint64_t off_first = 0;
  {
    ScopedEnv off("PJOIN_ENCODING", "0");
    off_first = ColumnDistinctCount(t, 0);
  }
  {
    ScopedEnv on("PJOIN_ENCODING", "1");
    EXPECT_EQ(ColumnDistinctCount(t, 0), off_first);
    cat.Invalidate();
    EXPECT_EQ(ColumnDistinctCount(t, 0), off_first);
  }
  EXPECT_EQ(off_first, 30011u);
  cat.Invalidate();
}

// Four threads touch one fresh table at once: one build, one shared entry.
TEST(StatsCatalogTest, ConcurrentFirstTouchBuildsOnce) {
  Rng rng(67);
  std::vector<int64_t> values;
  for (int i = 0; i < 50000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Below(20000)));
  }
  Table t = IntTable("sc_race", "v", values);
  ColumnCatalog& cat = ColumnCatalog::Global();
  cat.Invalidate();
  const uint64_t builds_before = cat.builds();
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<const TableStats*> stats(kThreads, nullptr);
  std::vector<const EncodedColumn*> encoded(kThreads, nullptr);
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([&, i] {
      start.arrive_and_wait();
      stats[i] = cat.Get(t);
      encoded[i] = cat.GetColumn(t, 0);
    });
  }
  for (std::thread& th : threads) th.join();
  EXPECT_EQ(cat.builds() - builds_before, 1u);
  ASSERT_NE(stats[0], nullptr);
  ASSERT_NE(encoded[0], nullptr);
  for (int i = 1; i < kThreads; ++i) {
    EXPECT_EQ(stats[i], stats[0]);
    EXPECT_EQ(encoded[i], encoded[0]);
  }
  EXPECT_EQ(cat.Get(t), stats[0]);
  cat.Invalidate();
}

// A cached table's lookup must not queue behind another table's first-touch
// build. The build hook holds the big table's build open until the main
// thread has looked up the small one, so that lookup returning at all is
// the observation. (A regression blocks the lookup behind the build; the
// hook's bounded wait then runs out, which fails the test instead of
// hanging it.)
TEST(StatsCatalogTest, CachedLookupDoesNotWaitForAnotherTablesBuild) {
  std::vector<int64_t> small_values;
  std::vector<int64_t> big_values;
  for (int i = 0; i < 1000; ++i) small_values.push_back(i % 17);
  for (int i = 0; i < 20000; ++i) big_values.push_back(i % 1234);
  Table small = IntTable("sc_small", "v", small_values);
  Table big = IntTable("sc_big", "v", big_values);
  ColumnCatalog& cat = ColumnCatalog::Global();
  cat.Invalidate();
  const TableStats* small_stats = cat.Get(small);
  ASSERT_NE(small_stats, nullptr);

  std::mutex mu;
  std::condition_variable cv;
  bool big_started = false;
  bool release = false;
  bool released_in_time = false;
  cat.set_build_hook([&](const Table& table) {
    if (&table != &big) return;
    std::unique_lock<std::mutex> lock(mu);
    big_started = true;
    cv.notify_all();
    released_in_time =
        cv.wait_for(lock, std::chrono::seconds(30), [&] { return release; });
  });
  std::thread toucher([&] { EXPECT_NE(cat.Get(big), nullptr); });
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return big_started; });
  }
  EXPECT_EQ(cat.Get(small), small_stats);
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  toucher.join();
  cat.set_build_hook(nullptr);
  EXPECT_TRUE(released_in_time);
  cat.Invalidate();
}

TEST(StatsCatalogTest, EmptyTableHasNoStatistics) {
  Table t = IntTable("sc_empty", "v", {});
  EXPECT_EQ(ColumnCatalog::Global().Get(t), nullptr);
  EXPECT_EQ(ColumnDistinctCount(t, 0), 0u);
  EXPECT_EQ(EstimateSelectivity(ScanPredicate::LeI("v", 3), t), 0.5);
  ColumnCatalog::Global().Invalidate();
}

TEST(StatsHistogram, BucketTargetRespected) {
  Rng rng(59);
  std::vector<int64_t> values;
  for (int i = 0; i < 50000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Below(20000)));
  }
  Table t = IntTable("sc_buckets", "v", values);
  const EqualHeightHistogram wide = EqualHeightHistogram::Build(t.column(0), 8);
  const EqualHeightHistogram fine =
      EqualHeightHistogram::Build(t.column(0), 256);
  EXPECT_LE(wide.buckets().size(), 8u);
  EXPECT_GT(fine.buckets().size(), wide.buckets().size());
}

TEST(StatsCatalogTest, AppendRefreshesCachedStats) {
  Table t = IntTable("sc_append", "v", {1, 2, 3, 4, 5});
  ColumnCatalog& cat = ColumnCatalog::Global();
  const TableStats* ts = cat.Get(t);
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->columns[0].distinct, 5u);

  // In-place append: the cached entry's content fingerprint no longer
  // matches, so the next Get() rebuilds instead of serving stale rows.
  for (int64_t v : {6, 7, 8}) {
    t.column(0).AppendInt64(v);
    t.FinishRow();
  }
  const TableStats* fresh = cat.Get(t);
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->columns[0].distinct, 8u);
  EXPECT_EQ(fresh->columns[0].histogram.max(), 8.0);

  // Invalidation releases the entry; the next Get() rebuilds from scratch
  // and lands on the same statistics.
  cat.Invalidate();
  const TableStats* again = cat.Get(t);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->columns[0].distinct, 8u);
  EXPECT_EQ(again->columns[0].histogram.DebugString(),
            ColumnCatalog::Build(t).stats.columns[0].histogram.DebugString());
  cat.Invalidate();
}

// ---- Estimator wiring ----------------------------------------------------

TEST(StatsEstimate, ScanEstimateUsesHistogram) {
  // 9 of every 10 rows are small; a min/max heuristic on [0, 1000000] would
  // estimate `v <= 100` at ~0.01%, the histogram sees ~90%.
  std::vector<int64_t> values;
  for (int64_t i = 0; i < 20000; ++i) {
    values.push_back(i % 10 == 0 ? 1000000 : i % 100);
  }
  Table t = IntTable("se_hist", "v", values);
  const double sel =
      EstimateSelectivity(ScanPredicate::LeI("v", 100), t);
  EXPECT_GT(sel, 0.5);
  EXPECT_LE(QError(sel, 0.9), 2.0);
  ColumnCatalog::Global().Invalidate();
}

TEST(StatsEstimate, JoinOutputUsesDistinctCounts) {
  // Build keys 0..99, probe keys 0..199: half the probe rows can match,
  // which only the distinct-count formula sees.
  std::vector<int64_t> build_keys, probe_keys;
  for (int64_t i = 0; i < 100; ++i) build_keys.push_back(i);
  for (int64_t i = 0; i < 2000; ++i) probe_keys.push_back(i % 200);
  Table build = IntTable("se_join_b", "b0", build_keys);
  Table probe = IntTable("se_join_p", "p0", probe_keys);
  auto plan = Join(ScanTable(&build), ScanTable(&probe), {{"b0", "p0"}});
  // d_build = 100, d_probe = 200: |out| = 100 * 2000 / 200 = 1000.
  EXPECT_EQ(plan->EstimateRows(), 1000u);

  // A computed build key has no base column, hence no distinct count: the
  // estimator falls back to its probe-side heuristic.
  auto computed =
      Join(MapColumns(ScanTable(&build), {ComputedCopy("bk", "b0")}),
           ScanTable(&probe), {{"bk", "p0"}});
  EXPECT_EQ(computed->EstimateRows(), 2000u);  // heuristic: probe rows
  ColumnCatalog::Global().Invalidate();
}

TEST(StatsEstimate, CorrelatedConjunctionIsDamped) {
  // Two perfectly correlated columns (b == a): the independence product
  // underestimates quadratically; the damped combiner must stay within the
  // most-selective single predicate and above the raw product.
  std::vector<ColumnDef> defs = {{"a", DataType::kInt64, 0},
                                 {"b", DataType::kInt64, 0}};
  Table t("se_corr", Schema(std::move(defs)));
  const int64_t n = 20000;
  t.Reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    const int64_t v = i % 1000;
    t.column(0).AppendInt64(v);
    t.column(1).AppendInt64(v);
    t.FinishRow();
  }
  const std::vector<ScanPredicate> preds = {ScanPredicate::EqI("a", 7),
                                            ScanPredicate::EqI("b", 7)};
  // distinct(a) * distinct(b) = 1e6 >> 20000 rows: flagged correlated.
  const double combined = EstimateConjunctionSelectivity(preds, t);
  const double single = EstimateSelectivity(preds[0], t);
  EXPECT_LE(combined, single + 1e-12);
  EXPECT_GT(combined, single * single * 1.5);  // clearly above the product
  {
    // An empty table has no statistics: plain independence product.
    Table empty("se_corr_empty", t.schema());
    const double off_combined = EstimateConjunctionSelectivity(preds, empty);
    const double off_single = EstimateSelectivity(preds[0], empty);
    EXPECT_NEAR(off_combined, off_single * off_single, 1e-12);
  }
  ColumnCatalog::Global().Invalidate();
}

TEST(StatsEstimate, SameColumnPredicatesTakeMin) {
  Rng rng(61);
  std::vector<int64_t> values;
  for (int i = 0; i < 20000; ++i) {
    values.push_back(static_cast<int64_t>(rng.Below(10000)));
  }
  Table t = IntTable("se_samecol", "v", values);
  const std::vector<ScanPredicate> preds = {ScanPredicate::GeI("v", 5000),
                                            ScanPredicate::LeI("v", 5100)};
  const double combined = EstimateConjunctionSelectivity(preds, t);
  const double narrow = EstimateSelectivity(preds[1], t);
  // Same-column conjuncts must not multiply (that would square-count the
  // shared column); the combiner takes the most selective one.
  EXPECT_LE(combined, narrow + 1e-12);
  EXPECT_GT(combined, 0.0);
  ColumnCatalog::Global().Invalidate();
}

}  // namespace
}  // namespace pjoin
