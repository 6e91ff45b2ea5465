// Tests for the advisor's skew defense: the histogram-estimated skew terms must
// keep kAuto off the plain (undefended) radix path whenever the estimated
// hottest partition overflows the margin-scaled L2 target, and the decision
// must surface in EXPLAIN / EXPLAIN ANALYZE and the metrics JSON.
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
  opt.llc_bytes = 16ull << 20;
  return opt;
}

SkewEstimate EstimateWithTopShare(double top_share) {
  return SkewEstimate{/*sample_rows=*/65536, top_share};
}

// The ISSUE's property: across the whole decision surface, a sampled
// max-key share above the partition-overflow threshold must never produce a
// plain radix pick — either the advisor stays non-partitioned, or the
// partitioned pick carries the armed runtime defense.
TEST(SkewAdvisor, NeverPlainRadixAboveOverflowThreshold) {
  const AdvisorOptions opt = PinnedCaches();
  for (uint64_t build : {50000ull, 200000ull, 1000000ull, 10000000ull}) {
    for (uint64_t probe_mult : {2ull, 10ull, 50ull}) {
      for (uint32_t width : {8u, 16u, 32u}) {
        for (double share : {0.02, 0.1, 0.3, 0.6, 0.95}) {
          SkewEstimate est = EstimateWithTopShare(share);
          JoinDecision d = JoinAdvisor::Decide(
              JoinKind::kInner, build, build, build * probe_mult, width, 8, 0,
              opt, &est);
          SCOPED_TRACE("build=" + std::to_string(build) +
                       " mult=" + std::to_string(probe_mult) +
                       " width=" + std::to_string(width) +
                       " share=" + std::to_string(share));
          EXPECT_TRUE(d.skew_sampled);
          EXPECT_DOUBLE_EQ(d.est_top_share, share);
          EXPECT_GE(d.est_max_partition_share, share);
          const double overflow =
              JoinAdvisor::PartitionOverflowShare(build, width, opt);
          if (d.est_max_partition_share > overflow) {
            EXPECT_TRUE(d.skew_overflow);
            const bool partitioned = d.choice != JoinStrategy::kBHJ;
            // Never plain RJ/BRJ: a partitioned pick must be defended.
            EXPECT_TRUE(!partitioned || d.skew_defense);
            if (partitioned) {
              EXPECT_STREQ(d.reason, "skewed build; partitioned with skew defense");
            }
          } else {
            EXPECT_FALSE(d.skew_overflow);
            EXPECT_FALSE(d.skew_defense);
          }
        }
      }
    }
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
      EXPECT_FALSE(d.skew_defense);
      EXPECT_EQ(d.choice, plain.choice);
      EXPECT_DOUBLE_EQ(d.cost_rj, plain.cost_rj);
    }
  }
}

TEST(SkewAdvisor, SkewPenaltyGrowsWithShare) {
  const AdvisorOptions opt = PinnedCaches();
  const SkewEstimate mild_est = EstimateWithTopShare(0.3);
  const SkewEstimate heavy_est = EstimateWithTopShare(0.9);
  JoinDecision mild = JoinAdvisor::Decide(JoinKind::kInner, 10000000, 10000000,
                                          100000000, 8, 8, 0, opt, &mild_est);
  JoinDecision heavy = JoinAdvisor::Decide(
      JoinKind::kInner, 10000000, 10000000, 100000000, 8, 8, 0, opt,
      &heavy_est);
  EXPECT_TRUE(mild.skew_overflow);
  EXPECT_TRUE(heavy.skew_overflow);
  EXPECT_GT(heavy.cost_rj, mild.cost_rj);
  EXPECT_GT(heavy.cost_brj, mild.cost_brj);
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

// Tiny modeled caches + an enormous margin force the partitioned pick, so
// the sampled overflow must arm the defense (rather than switch to BHJ).
ExecOptions ForcedPartitionAutoOptions() {
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.advisor.l2_bytes = 512;
  options.advisor.llc_bytes = 2048;
  options.advisor.partition_margin = 1000.0;
  options.num_threads = 2;
  return options;
}

TEST(SkewAdvisor, SkewedBuildArmsDefenseEndToEnd) {
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
  EXPECT_NE(jm->advisor.choice, JoinStrategy::kBHJ);
  EXPECT_TRUE(jm->advisor.skew_defense);
  // The runtime defense actually ran: the heavy key bypassed partitioning.
  EXPECT_TRUE(jm->skew.enabled);
  EXPECT_GE(jm->skew.heavy_hitters, 1u);
  EXPECT_GT(jm->skew.bypass_build_tuples, 5000u);
  EXPECT_GT(jm->skew.bypass_probe_tuples, 0u);
  // The JSON carries both the estimate and the runtime record.
  const std::string json = stats.metrics.ToJson(/*include_timings=*/false);
  EXPECT_NE(json.find("\"skew_defense\":true"), std::string::npos);
  EXPECT_NE(json.find("\"est_top_share\":"), std::string::npos);
  EXPECT_NE(json.find("\"skew\":{\"heavy_hitters\":"), std::string::npos);
}

// Without statistics there is no histogram, hence no skew estimate: the
// advisor decides as if keys were uniform and arms no defense.
TEST(SkewAdvisor, StatsOffRestoresPlainDecision) {
  Table build = MakeSkewedBuild(20000, 0.5);
  Table probe = MakeUniformProbe(40000, 20000);
  auto plan = CountPlan(&build, &probe);

  ScopedEnv stats_off("PJOIN_STATS", "0");
  QueryStats stats;
  ExecuteQuery(*plan, ForcedPartitionAutoOptions(), &stats);
  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  ASSERT_TRUE(jm->advisor.present);
  EXPECT_FALSE(jm->advisor.skew_sampled);
  EXPECT_FALSE(jm->advisor.skew_defense);
  EXPECT_FALSE(jm->skew.enabled);
  const std::string json = stats.metrics.ToJson(false);
  EXPECT_NE(json.find("\"skew_sampled\":false,\"est_top_share\":0.000000"),
            std::string::npos);
  EXPECT_NE(json.find("\"dense_fallbacks\":0,\"enabled\":false}"),
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
  EXPECT_NE(text.find("defense=on"), std::string::npos) << text;
  EXPECT_EQ(text.find("fell back"), std::string::npos) << text;

  // EXPLAIN ANALYZE adds the per-partition runtime record.
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);
  const std::string analyzed = ExplainAnalyzePlan(*plan, options, stats);
  EXPECT_NE(analyzed.find("skew: sample=20000"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("defense=on"), std::string::npos) << analyzed;
  EXPECT_NE(analyzed.find("skew_defense: heavy="), std::string::npos)
      << analyzed;
  EXPECT_NE(analyzed.find("bypass_build="), std::string::npos) << analyzed;
  EXPECT_EQ(analyzed.find("fell back"), std::string::npos) << analyzed;

  // Identical runs render identically (deterministic statistics).
  EXPECT_EQ(text, ExplainPlan(*plan, options));
}

}  // namespace
}  // namespace pjoin
