// Tests for the advisor's skew rule: a histogram-estimated hottest key that
// overflows one margin-scaled partition makes kAuto decline to partition
// (the paper's answer to skew, Table 4 and Fig. 17), and the estimate
// surfaces in EXPLAIN / EXPLAIN ANALYZE and the metrics JSON.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/advisor.h"
#include "engine/executor.h"
#include "engine/explain.h"
#include "engine/plan.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace pjoin {
namespace {

AdvisorOptions PinnedCaches() {
  AdvisorOptions opt;
  opt.l2_bytes = 1ull << 20;
  opt.profile = &CostProfile::Reference();
  return opt;
}

SkewEstimate EstimateWithTopShare(double top_share) {
  return SkewEstimate{/*sample_rows=*/65536, top_share};
}

// Across the whole decision surface, with and without a memory budget, a
// sampled max-key share above the partition-overflow threshold picks BHJ
// (hybrid when it must spill); below it the skew estimate decides nothing.
TEST(SkewAdvisor, OverflowPicksBhjAtEveryBudget) {
  for (uint64_t budget : {0ull, 1ull << 20, 16ull << 20}) {
    AdvisorOptions opt = PinnedCaches();
    opt.memory_budget = budget;
    int flipped = 0;  // overflows that would partition without the estimate
    for (uint64_t build : {50000ull, 200000ull, 1000000ull, 10000000ull}) {
      for (uint64_t probe_mult : {2ull, 10ull, 50ull}) {
        for (uint32_t width : {8u, 16u, 32u}) {
          for (double share : {0.02, 0.1, 0.3, 0.6, 0.95}) {
            SkewEstimate est = EstimateWithTopShare(share);
            JoinDecision d = JoinAdvisor::Decide(
                JoinKind::kInner, build, build, build * probe_mult, width, 8,
                0, opt, &est);
            JoinDecision plain = JoinAdvisor::Decide(
                JoinKind::kInner, build, build, build * probe_mult, width, 8,
                0, opt);
            SCOPED_TRACE("budget=" + std::to_string(budget) +
                         " build=" + std::to_string(build) +
                         " mult=" + std::to_string(probe_mult) +
                         " width=" + std::to_string(width) +
                         " share=" + std::to_string(share));
            EXPECT_TRUE(d.skew_sampled);
            EXPECT_DOUBLE_EQ(d.est_top_share, share);
            EXPECT_GE(d.est_max_partition_share, share);
            // The estimate no longer touches the modeled costs.
            EXPECT_DOUBLE_EQ(d.cost_rj, plain.cost_rj);
            EXPECT_DOUBLE_EQ(d.cost_brj, plain.cost_brj);
            const double overflow =
                JoinAdvisor::PartitionOverflowShare(build, width, opt);
            if (d.est_max_partition_share > overflow) {
              EXPECT_TRUE(d.skew_overflow);
              EXPECT_EQ(d.choice, JoinStrategy::kBHJ);
              if (plain.choice != JoinStrategy::kBHJ) {
                ++flipped;
                EXPECT_STREQ(d.reason, "skewed build; partitioning collapses");
              }
            } else {
              EXPECT_FALSE(d.skew_overflow);
              EXPECT_EQ(d.choice, plain.choice);
              EXPECT_STREQ(d.reason, plain.reason);
            }
          }
        }
      }
    }
    EXPECT_GT(flipped, 0) << "budget=" << budget;
  }
}

TEST(SkewAdvisor, UniformSampleNeverTripsOverflow) {
  // A near-uniform sample estimates the hottest partition at the even 1/P
  // spread, which the radix-bit choice keeps below the overflow threshold:
  // uniform inputs must decide exactly as they did before sampling existed.
  const AdvisorOptions opt = PinnedCaches();
  for (uint64_t build : {10000ull, 1000000ull, 10000000ull}) {
    for (uint32_t width : {8u, 16u, 32u, 64u}) {
      SkewEstimate est = EstimateWithTopShare(1.0 / 5000.0);
      JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, build, build,
                                           build * 10, width, 8, 0, opt, &est);
      JoinDecision plain = JoinAdvisor::Decide(JoinKind::kInner, build, build,
                                               build * 10, width, 8, 0, opt);
      SCOPED_TRACE("build=" + std::to_string(build) +
                   " width=" + std::to_string(width));
      EXPECT_FALSE(d.skew_overflow);
      EXPECT_EQ(d.choice, plain.choice);
      EXPECT_DOUBLE_EQ(d.cost_rj, plain.cost_rj);
    }
  }
}

// ---- End to end: a skewed build estimated by AdvisePlan ------------------

Table MakeSkewedBuild(uint64_t rows, double heavy_fraction) {
  Table t("skb", Schema({{"b0", DataType::kInt64, 0},
                         {"b1", DataType::kInt64, 0}}));
  t.Reserve(rows);
  Rng rng(31);
  const uint64_t heavy_rows =
      static_cast<uint64_t>(heavy_fraction * static_cast<double>(rows));
  for (uint64_t i = 0; i < rows; ++i) {
    const bool heavy =
        i * heavy_rows / rows != (i + 1) * heavy_rows / rows;
    const int64_t key =
        heavy ? 1 : static_cast<int64_t>(2 + rng.Below(rows));
    t.column(0).AppendInt64(key);
    t.column(1).AppendInt64(key);
    t.FinishRow();
  }
  return t;
}

Table MakeUniformProbe(uint64_t rows, uint64_t universe) {
  Table t("skp", Schema({{"p0", DataType::kInt64, 0}}));
  t.Reserve(rows);
  Rng rng(32);
  for (uint64_t i = 0; i < rows; ++i) {
    t.column(0).AppendInt64(static_cast<int64_t>(1 + rng.Below(universe)));
    t.FinishRow();
  }
  return t;
}

std::unique_ptr<PlanNode> CountPlan(const Table* build, const Table* probe) {
  auto join = Join(ScanTable(build), ScanTable(probe), {{"b0", "p0"}});
  std::vector<std::string> group_by;
  for (const auto& col : join->OutputColumns()) group_by.push_back(col.name);
  return Aggregate(std::move(join), std::move(group_by),
                   {AggDef::CountStar("n")});
}

// Tiny modeled caches + an enormous margin would pick a partitioned
// strategy for any build; the sampled overflow must still pick BHJ.
ExecOptions ForcedPartitionAutoOptions() {
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.advisor.l2_bytes = 512;
  options.advisor.profile = &CostProfile::Reference();
  options.advisor.partition_margin = 1000.0;
  options.num_threads = 2;
  return options;
}

TEST(SkewAdvisor, SkewedBuildPicksBhjEndToEnd) {
  Table build = MakeSkewedBuild(20000, 0.5);
  Table probe = MakeUniformProbe(40000, 20000);
  auto plan = CountPlan(&build, &probe);

  ExecOptions bhj;
  bhj.join_strategy = JoinStrategy::kBHJ;
  bhj.num_threads = 2;
  QueryResult reference = ExecuteQuery(*plan, bhj);

  QueryStats stats;
  QueryResult result =
      ExecuteQuery(*plan, ForcedPartitionAutoOptions(), &stats);
  EXPECT_TRUE(result.ApproxEquals(reference));

  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  ASSERT_TRUE(jm->advisor.present);
  EXPECT_TRUE(jm->advisor.skew_sampled);
  EXPECT_GT(jm->advisor.est_top_share, 0.4);
  EXPECT_GT(jm->advisor.est_max_partition_share, 0.4);
  EXPECT_EQ(jm->advisor.choice, JoinStrategy::kBHJ);
  EXPECT_STREQ(jm->advisor.reason, "skewed build; partitioning collapses");
  EXPECT_FALSE(jm->has_partitions);
  // The JSON carries the estimate.
  const std::string json = stats.metrics.ToJson(/*include_timings=*/false);
  EXPECT_NE(json.find("\"skew_sampled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"est_top_share\":"), std::string::npos);
}

// A computed build key has no base column, hence no histogram and no skew
// estimate: the advisor decides as if keys were uniform, and the forced
// margin partitions.
TEST(SkewAdvisor, ComputedKeyRestoresPlainDecision) {
  Table build = MakeSkewedBuild(20000, 0.5);
  Table probe = MakeUniformProbe(40000, 20000);
  auto plan = Aggregate(
      Join(MapColumns(ScanTable(&build), {ComputedCopy("bk", "b0")}),
           ScanTable(&probe), {{"bk", "p0"}}),
      {}, {AggDef::CountStar("n")});

  QueryStats stats;
  ExecuteQuery(*plan, ForcedPartitionAutoOptions(), &stats);
  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  ASSERT_TRUE(jm->advisor.present);
  EXPECT_FALSE(jm->advisor.skew_sampled);
  EXPECT_NE(jm->advisor.choice, JoinStrategy::kBHJ);
  EXPECT_TRUE(jm->has_partitions);
  const std::string json = stats.metrics.ToJson(false);
  EXPECT_NE(json.find("\"skew_sampled\":false,\"est_top_share\":0.000000"),
            std::string::npos);
}

TEST(SkewAdvisor, ExplainShowsSkewDecisionFields) {
  Table build = MakeSkewedBuild(20000, 0.5);
  Table probe = MakeUniformProbe(40000, 20000);
  auto plan = CountPlan(&build, &probe);
  ExecOptions options = ForcedPartitionAutoOptions();

  // Plain EXPLAIN: the histogram estimate renders under the advisor line;
  // the 20,000-row build key is below the sampling cap, so every row counts.
  const std::string text = ExplainPlan(*plan, options);
  EXPECT_NE(text.find("skew: sample=20000"), std::string::npos) << text;
  EXPECT_NE(text.find("top_share="), std::string::npos) << text;
  EXPECT_NE(text.find("max_part_share="), std::string::npos) << text;
  EXPECT_NE(text.find("skewed build; partitioning collapses"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("join #0 [inner, auto:BHJ]"), std::string::npos)
      << text;

  // EXPLAIN ANALYZE renders the same estimate beside the actuals.
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);
  const std::string analyzed = ExplainAnalyzePlan(*plan, options, stats);
  EXPECT_NE(analyzed.find("skew: sample=20000"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("skewed build; partitioning collapses"),
            std::string::npos)
      << analyzed;
  // The join ran the BHJ it was advised: a hash table, no partitions.
  EXPECT_NE(analyzed.find("join #0 [inner, auto:BHJ]"), std::string::npos)
      << analyzed;
  EXPECT_NE(analyzed.find("ht: entries=20000"), std::string::npos)
      << analyzed;
  EXPECT_EQ(analyzed.find("radix:"), std::string::npos) << analyzed;

  // Identical runs render identically (deterministic statistics).
  EXPECT_EQ(text, ExplainPlan(*plan, options));
}

}  // namespace
}  // namespace pjoin
