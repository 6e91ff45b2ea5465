// Tests for plan analysis (output columns, join counting, estimates) and
// executor audits.
#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/plan.h"
#include "tpch/gen.h"
#include "tpch/queries.h"

namespace pjoin {
namespace {

Table SmallTable(const std::string& name, const std::string& prefix,
                 int64_t rows) {
  Table t(name, Schema({{prefix + "_key", DataType::kInt64, 0},
                        {prefix + "_pay", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < rows; ++i) {
    t.column(0).AppendInt64(i);
    t.column(1).AppendInt64(i);
    t.FinishRow();
  }
  return t;
}

TEST(Plan, OutputColumnsPropagate) {
  Table a = SmallTable("a", "a", 10);
  Table b = SmallTable("b", "b", 10);
  auto join = Join(ScanTable(&a), ScanTable(&b), {{"a_key", "b_key"}},
                   JoinKind::kMark, "found");
  auto cols = join->OutputColumns();
  ASSERT_EQ(cols.size(), 5u);  // a_key a_pay b_key b_pay found
  EXPECT_EQ(cols.back().name, "found");
  EXPECT_EQ(cols.back().source_table, nullptr);
  EXPECT_EQ(cols[0].source_table, &a);
}

TEST(Plan, CountJoinsRecurses) {
  Table a = SmallTable("a", "a", 10);
  Table b = SmallTable("b", "b", 10);
  Table c = SmallTable("c", "c", 10);
  auto inner = Join(ScanTable(&a), ScanTable(&b), {{"a_key", "b_key"}});
  auto outer = Join(std::move(inner), ScanTable(&c), {{"a_key", "c_key"}});
  EXPECT_EQ(outer->CountJoins(), 2);
  auto agg = Aggregate(std::move(outer), {}, {AggDef::CountStar("n")});
  EXPECT_EQ(agg->CountJoins(), 2);
}

TEST(Plan, EstimateFollowsProbeSide) {
  Table small = SmallTable("s", "s", 10);
  Table big = SmallTable("bg", "bg", 100000);
  auto join = Join(ScanTable(&small), ScanTable(&big), {{"s_key", "bg_key"}});
  // |B|*|P| / max(d_build, d_probe): 10 build keys against 100000 distinct
  // probe keys — only the 10 matching probe rows survive.
  EXPECT_EQ(join->EstimateRows(), 10u);
}

TEST(Plan, MultiPredicateScanEstimatesCombine) {
  // Two uniform columns: "a" over [0, 99], "b" over [0, 9]. Selectivities of
  // conjunctive predicates must multiply (independence assumption), not be
  // ignored beyond the first predicate.
  Table t("mp", Schema({{"mp_a", DataType::kInt64, 0},
                        {"mp_b", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < 10000; ++i) {
    t.column(0).AppendInt64(i % 100);
    t.column(1).AppendInt64(i % 10);
    t.FinishRow();
  }
  // No predicate: exact.
  EXPECT_EQ(ScanTable(&t)->EstimateRows(), 10000u);
  // One predicate: a >= 50 keeps half the domain.
  auto one = ScanTable(&t, {ScanPredicate::GeI("mp_a", 50)});
  EXPECT_EQ(one->EstimateRows(), 5000u);
  // Both predicates: 0.5 * 0.1 of the table.
  auto both = ScanTable(&t, {ScanPredicate::GeI("mp_a", 50),
                             ScanPredicate::EqI("mp_b", 3)});
  EXPECT_EQ(both->EstimateRows(), 500u);
  // Estimates never drop below one row.
  auto rare = ScanTable(&t, {ScanPredicate::EqI("mp_a", 3),
                             ScanPredicate::EqI("mp_b", 3),
                             ScanPredicate::LtI("mp_b", 1)});
  EXPECT_GE(rare->EstimateRows(), 1u);
}

TEST(Executor, JoinMetricsMeasureSides) {
  Table dim = SmallTable("d", "d", 100);
  Table fact = SmallTable("f", "f", 50000);
  auto plan = Aggregate(
      Join(ScanTable(&dim), ScanTable(&fact), {{"d_key", "f_key"}}), {},
      {AggDef::CountStar("n")});
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBRJ;
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);
  ASSERT_EQ(stats.metrics.joins().size(), 1u);
  const JoinMetrics& join = stats.metrics.joins()[0];
  EXPECT_EQ(join.join_id, 0);
  EXPECT_EQ(join.strategy, JoinStrategy::kBRJ);
  EXPECT_EQ(join.build_tuples, 100u);
  EXPECT_EQ(join.probe_tuples, 50000u);
  // fact keys 0..49999 but dim holds only 0..99 — ~0.2% match.
  EXPECT_NEAR(join.match_fraction(), 0.002, 0.002);
  EXPECT_EQ(join.build_width, 8u);  // only d_key is required
  EXPECT_EQ(join.build_bytes(), 100u * 8u);
  EXPECT_EQ(join.probe_bytes(), 50000u * join.probe_width);
}

TEST(Executor, JoinsOrderedPostOrderAcrossSteps) {
  auto db = GenerateTpch(0.01);
  ThreadPool pool(1);
  const TpchQuery& q2 = GetTpchQuery(2);
  ExecOptions options;
  options.num_threads = 1;
  QueryStats stats;
  q2.run(*db, options, &stats, &pool);
  ASSERT_EQ(static_cast<int>(stats.metrics.joins().size()), q2.num_joins);
  for (int j = 0; j < q2.num_joins; ++j) {
    EXPECT_EQ(stats.metrics.joins()[j].join_id, j);
  }
}

TEST(Executor, ThroughputMetricCountsSources) {
  Table dim = SmallTable("d2", "d2", 100);
  Table fact = SmallTable("f2", "f2", 5000);
  auto plan = Aggregate(
      Join(ScanTable(&dim), ScanTable(&fact), {{"d2_key", "f2_key"}}), {},
      {AggDef::CountStar("n")});
  QueryStats stats;
  ExecuteQuery(*plan, ExecOptions{}, &stats);
  // Footnote 5 of the paper: tablescan + tablescan + result scan.
  EXPECT_EQ(stats.source_tuples, 5100u);
  EXPECT_EQ(stats.result_rows, 1u);
}

TEST(Executor, RadixAblationTogglesStillCorrect) {
  Table dim = SmallTable("d3", "d3", 5000);
  Table fact = SmallTable("f3", "f3", 100000);
  auto make_plan = [&] {
    return Aggregate(
        Join(ScanTable(&dim), ScanTable(&fact), {{"d3_key", "f3_key"}}), {},
        {AggDef::CountStar("n"), AggDef::Sum("f3_pay", "s")});
  };
  ExecOptions base;
  base.join_strategy = JoinStrategy::kRJ;
  QueryResult reference = ExecuteQuery(*make_plan(), base);

  for (int variant = 0; variant < 4; ++variant) {
    ExecOptions options = base;
    options.use_swwcb = (variant & 1) != 0;
    options.use_streaming = (variant & 2) != 0 && options.use_swwcb;
    QueryResult result = ExecuteQuery(*make_plan(), options);
    EXPECT_TRUE(result.ApproxEquals(reference)) << "variant " << variant;
  }
  // Manual radix-bit overrides (single-pass and deep two-pass).
  for (auto [b1, b2] : {std::pair{3, 0}, std::pair{2, 6}, std::pair{0, 4}}) {
    ExecOptions options = base;
    options.radix_bits1 = b1;
    options.radix_bits2 = b2;
    QueryResult result = ExecuteQuery(*make_plan(), options);
    EXPECT_TRUE(result.ApproxEquals(reference)) << b1 << "/" << b2;
  }
}

}  // namespace
}  // namespace pjoin
