// Tests for mid-query adaptive re-planning (PJOIN_REPLAN_QERROR).
//
// Re-planning generalizes the build-overflow guardrail: with the trigger
// armed, every advised join defers its engine decision from the build sink's
// Finish to the probe sink's Prepare, publishes observed cardinalities into
// ExecContext, and re-costs the partition-or-not question when the estimate's
// q-error crosses the threshold. The tests inject estimate corruption through
// AdvisorOptions::est_scale (the PJOIN_EST_SCALE fault knob) and check
//   * both switch directions (misled-partitioned -> BHJ, misled-BHJ ->
//     partitioned),
//   * bit-identical results with re-planning off vs on across all 8 join
//     kinds and both corruption directions,
//   * cardinality feedback flowing up a join chain,
//   * off-by-default (the legacy guardrail semantics are unchanged).
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/advisor.h"
#include "engine/executor.h"
#include "engine/explain.h"
#include "engine/plan.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace pjoin {
namespace {

const JoinKind kAllKinds[] = {
    JoinKind::kInner,      JoinKind::kProbeSemi, JoinKind::kProbeAnti,
    JoinKind::kBuildSemi,  JoinKind::kBuildAnti, JoinKind::kLeftOuter,
    JoinKind::kRightOuter, JoinKind::kMark,
};

Table MakeTable(const std::string& name, const std::string& prefix,
                const IntRows& rows, int cols) {
  std::vector<ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.push_back({prefix + std::to_string(c), DataType::kInt64, 0});
  }
  Table t(name, Schema(std::move(defs)));
  t.Reserve(rows.size());
  for (const auto& row : rows) {
    for (int c = 0; c < cols; ++c) t.column(c).AppendInt64(row[c]);
    t.FinishRow();
  }
  return t;
}

IntRows KeyedRows(uint64_t rows, uint64_t universe, uint64_t seed,
                  int cols = 2) {
  Rng rng(seed);
  IntRows out;
  out.reserve(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    std::vector<int64_t> row(cols);
    row[0] = static_cast<int64_t>(rng.Below(universe));
    for (int c = 1; c < cols; ++c) {
      row[c] = static_cast<int64_t>(rng.Next() & 0xFFFF);
    }
    out.push_back(std::move(row));
  }
  return out;
}

std::unique_ptr<PlanNode> CountPlan(const Table* build, const Table* probe,
                                    JoinKind kind) {
  auto join = Join(ScanTable(build), ScanTable(probe), {{"b0", "p0"}}, kind,
                   kind == JoinKind::kMark ? "mark" : "");
  std::vector<std::string> group_by;
  for (const auto& col : join->OutputColumns()) group_by.push_back(col.name);
  return Aggregate(std::move(join), std::move(group_by),
                   {AggDef::CountStar("n")});
}

// Pinned cost-model caches plus a margin that forces a partitioned pick for
// any build the L2 rule does not catch — so the decision depends only on
// whether the (possibly corrupted) build estimate fits the modeled L2, and
// both switch directions can be staged deterministically.
ExecOptions ReplanOptions(double est_scale, double threshold = 2.0) {
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.num_threads = 2;
  options.advisor.l2_bytes = 64 << 10;
  options.advisor.profile = &CostProfile::Reference();
  options.advisor.partition_margin = 1000.0;
  options.advisor.est_scale = est_scale;
  options.advisor.replan_qerror = threshold;
  return options;
}

TEST(Replan, DisabledByDefaultKeepsLegacyGuardrail) {
  Table build = MakeTable("rd_b", "b", KeyedRows(2000, 500, 11), 2);
  Table probe = MakeTable("rd_p", "p", KeyedRows(8000, 1000, 12), 2);
  auto plan = CountPlan(&build, &probe, JoinKind::kInner);

  ExecOptions options = ReplanOptions(/*est_scale=*/1.0);
  options.advisor.replan_qerror = 0.0;  // explicit off (also the default)
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);
  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  EXPECT_FALSE(jm->replan.enabled);
  EXPECT_NE(stats.metrics.ToJson(false).find("\"replan\":{\"enabled\":false"),
            std::string::npos);
}

TEST(Replan, OverestimateSwitchesPartitionedPlanToBHJ) {
  // Truth: a 1200-row build fits the modeled 64KiB L2 (48-byte ht entries ->
  // ~57KiB). The x64 corruption makes the advisor see 76800 rows (under a
  // larger probe side) -> partitioned. The re-plan observes staged=1200 (q-error 64), re-costs,
  // and the L2 rule sends the join to BHJ — a switch, not an overflow
  // fallback.
  Table build = MakeTable("ro_b", "b", KeyedRows(1200, 500, 21), 2);
  Table probe = MakeTable("ro_p", "p", KeyedRows(100000, 1000, 22), 1);
  auto plan = CountPlan(&build, &probe, JoinKind::kInner);

  ExecOptions bhj;
  bhj.join_strategy = JoinStrategy::kBHJ;
  bhj.num_threads = 2;
  QueryResult reference = ExecuteQuery(*CountPlan(&build, &probe,
                                                  JoinKind::kInner),
                                       bhj);

  QueryStats stats;
  QueryResult result =
      ExecuteQuery(*plan, ReplanOptions(/*est_scale=*/64.0), &stats);
  EXPECT_TRUE(result.ApproxEquals(reference));

  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  ASSERT_TRUE(jm->advisor.present);
  EXPECT_NE(jm->advisor.choice, JoinStrategy::kBHJ);  // misled static plan
  ASSERT_TRUE(jm->replan.enabled);
  EXPECT_TRUE(jm->replan.triggered);
  EXPECT_TRUE(jm->replan.switched);
  EXPECT_EQ(jm->replan.final_choice, JoinStrategy::kBHJ);
  EXPECT_GE(jm->replan.qerror_build, 32.0);
  EXPECT_EQ(jm->replan.staged_build_tuples, 1200u);
  EXPECT_TRUE(jm->has_hash_table);   // the BHJ engine ran
  EXPECT_FALSE(jm->has_partitions);  // the radix join never finalized
  // A re-plan switch is not the overflow guardrail: the legacy fallback
  // flag stays clear in metrics and JSON.
  EXPECT_FALSE(jm->advisor.fell_back);
  const std::string json = stats.metrics.ToJson(false);
  EXPECT_NE(json.find("\"replan\""), std::string::npos);
  EXPECT_NE(json.find("\"fell_back\":false"), std::string::npos);

  // EXPLAIN ANALYZE: the advisor line carries the estimate quality (the x64
  // build corruption is a mispredict) and the replan line shows the switch;
  // a replan switch is not the legacy guardrail fallback.
  const std::string text =
      ExplainAnalyzePlan(*plan, ReplanOptions(/*est_scale=*/64.0), stats);
  EXPECT_NE(text.find(" qerr[build="), std::string::npos);
  EXPECT_NE(text.find(" MISPREDICT"), std::string::npos);
  EXPECT_NE(text.find("replan: plan="), std::string::npos);
  EXPECT_NE(text.find("final=BHJ"), std::string::npos);
  EXPECT_NE(text.find("(triggered, switched)"), std::string::npos);
  EXPECT_EQ(text.find("fell back"), std::string::npos);
}

TEST(Replan, UnderestimateSwitchesBHJPlanToPartitioned) {
  // Truth: a 40000-row build overflows the modeled L2. The /64 corruption
  // makes the advisor see 625 rows -> "build fits L2" -> BHJ. The re-plan
  // observes staged=40000 and the forced margin partitions it.
  Table build = MakeTable("ru_b", "b", KeyedRows(40000, 10000, 31), 2);
  Table probe = MakeTable("ru_p", "p", KeyedRows(80000, 20000, 32), 1);
  auto plan = CountPlan(&build, &probe, JoinKind::kInner);

  ExecOptions bhj;
  bhj.join_strategy = JoinStrategy::kBHJ;
  bhj.num_threads = 2;
  QueryResult reference = ExecuteQuery(*CountPlan(&build, &probe,
                                                  JoinKind::kInner),
                                       bhj);

  QueryStats stats;
  QueryResult result =
      ExecuteQuery(*plan, ReplanOptions(/*est_scale=*/1.0 / 64.0), &stats);
  EXPECT_TRUE(result.ApproxEquals(reference));

  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  ASSERT_TRUE(jm->advisor.present);
  EXPECT_EQ(jm->advisor.choice, JoinStrategy::kBHJ);  // misled static plan
  ASSERT_TRUE(jm->replan.enabled);
  EXPECT_TRUE(jm->replan.triggered);
  EXPECT_TRUE(jm->replan.switched);
  EXPECT_NE(jm->replan.final_choice, JoinStrategy::kBHJ);
  EXPECT_EQ(jm->replan.staged_build_tuples, 40000u);
  EXPECT_TRUE(jm->has_partitions);  // the radix engine finalized and ran
  EXPECT_FALSE(jm->advisor.fell_back);
}

TEST(Replan, AccurateEstimateConfirmsPlan) {
  // No corruption: the q-error stays ~1, the trigger never fires, and the
  // deferred decision confirms whatever the plan chose.
  Table build = MakeTable("rc_b", "b", KeyedRows(40000, 10000, 41), 2);
  Table probe = MakeTable("rc_p", "p", KeyedRows(80000, 20000, 42), 1);
  auto plan = CountPlan(&build, &probe, JoinKind::kInner);

  QueryStats stats;
  ExecuteQuery(*plan, ReplanOptions(/*est_scale=*/1.0), &stats);
  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  ASSERT_TRUE(jm->replan.enabled);
  EXPECT_FALSE(jm->replan.triggered);
  EXPECT_FALSE(jm->replan.switched);
  EXPECT_LT(jm->replan.qerror_build, 2.0);
  EXPECT_EQ(jm->replan.final_choice, jm->advisor.choice);
}

TEST(Replan, FeedbackCorrectsDownstreamProbeEstimate) {
  // Left-deep chain: the outer join's probe side is the inner join. The
  // inner join publishes its build-ratio-corrected output estimate before
  // the outer join resolves, so the outer join's probe q-error reflects the
  // same x8 corruption even though its own probe actual is not yet counted.
  Table dim1 = MakeTable("rf_d1", "d", KeyedRows(200, 200, 51, 1), 1);
  Table dim2 = MakeTable("rf_d2", "e", KeyedRows(400, 400, 52, 1), 1);
  IntRows fact_rows;
  Rng rng(53);
  for (int64_t i = 0; i < 20000; ++i) {
    fact_rows.push_back({static_cast<int64_t>(rng.Below(400)),
                         static_cast<int64_t>(rng.Below(800))});
  }
  Table fact = MakeTable("rf_f", "f", fact_rows, 2);

  auto make_plan = [&] {
    auto inner = Join(ScanTable(&dim2), ScanTable(&fact), {{"e0", "f1"}});
    auto outer = Join(ScanTable(&dim1), std::move(inner), {{"d0", "f0"}});
    return Aggregate(std::move(outer), {}, {AggDef::CountStar("n")});
  };

  ExecOptions bhj;
  bhj.join_strategy = JoinStrategy::kBHJ;
  bhj.num_threads = 2;
  QueryResult reference = ExecuteQuery(*make_plan(), bhj);

  QueryStats stats;
  QueryResult result =
      ExecuteQuery(*make_plan(), ReplanOptions(/*est_scale=*/8.0), &stats);
  EXPECT_TRUE(result.ApproxEquals(reference));

  const JoinMetrics* outer_jm = stats.metrics.FindJoin(1);
  ASSERT_NE(outer_jm, nullptr);
  ASSERT_TRUE(outer_jm->replan.enabled);
  // The inner join staged 1/8 of its corrupted estimate and said so; the
  // outer join's corrected probe estimate carries that ratio.
  EXPECT_GE(outer_jm->replan.qerror_probe, 4.0);
  EXPECT_LT(outer_jm->replan.corrected_probe_tuples,
            outer_jm->advisor.est_probe_tuples);
}

// Differential sweep: for every join kind and both corruption directions,
// the re-planned run must produce results identical to manual BHJ and to the
// same kAuto run with re-planning off.
class ReplanDifferentialTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(ReplanDifferentialTest, BitIdenticalOnAndOff) {
  const JoinKind kind = GetParam();
  Table build = MakeTable("rdiff_b", "b", KeyedRows(8000, 2000, 61), 2);
  Table probe = MakeTable("rdiff_p", "p", KeyedRows(16000, 4000, 62), 2);

  ExecOptions bhj;
  bhj.join_strategy = JoinStrategy::kBHJ;
  bhj.num_threads = 2;
  QueryResult reference = ExecuteQuery(*CountPlan(&build, &probe, kind), bhj);

  for (double scale : {1.0 / 16.0, 1.0, 16.0}) {
    SCOPED_TRACE("est_scale=" + std::to_string(scale));
    ExecOptions off = ReplanOptions(scale);
    off.advisor.replan_qerror = 0.0;
    QueryResult off_result =
        ExecuteQuery(*CountPlan(&build, &probe, kind), off);
    EXPECT_TRUE(off_result.ApproxEquals(reference)) << "replan off";

    QueryStats stats;
    QueryResult on_result = ExecuteQuery(*CountPlan(&build, &probe, kind),
                                         ReplanOptions(scale), &stats);
    EXPECT_TRUE(on_result.ApproxEquals(reference)) << "replan on";
    const JoinMetrics* jm = stats.metrics.FindJoin(0);
    ASSERT_NE(jm, nullptr);
    EXPECT_TRUE(jm->replan.enabled);
    if (scale != 1.0) {
      EXPECT_TRUE(jm->replan.triggered);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ReplanDifferentialTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<JoinKind>& info) {
      std::string name = JoinKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pjoin
