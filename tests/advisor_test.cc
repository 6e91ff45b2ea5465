// Tests for the cost-based join-strategy advisor (JoinStrategy::kAuto).
//
// Three layers, matching the paper's claim structure:
//   * Decision surfaces: JoinAdvisor::Decide reproduces the Section 5 rules
//     (never partition a build that fits L2, the "when in doubt, do not
//     partition" margin, Bloom filters only where applicable), priced with
//     the committed reference cost profile; the calibrated profile itself
//     calibrates once per size class under racing threads, within the
//     decision's own table bytes.
//   * Property testing: ~100 seeded workloads (the differential-test sweep
//     of selectivity, duplicates, payload width, skew, ratio) where kAuto —
//     under default and adversarially tiny cost-model caches — must produce
//     results identical to every manual strategy.
//   * Misestimates: the plan-time choice is the only one. With the build
//     estimate corrupted 100x down or 64x up, every join kind runs the
//     strategy planned from the wrong estimate and still matches manual BHJ.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/advisor.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "exec/thread_pool.h"
#include "partition/radix_partitioner.h"
#include "spill/memory_governor.h"
#include "tests/test_util.h"
#include "tpch/gen.h"
#include "tpch/queries.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace pjoin {
namespace {

// ---- Seeded workload sweep (mirrors join_differential_test.cc) -----------

struct DataConfig {
  const char* name;
  uint64_t build_rows;
  uint64_t probe_rows;
  uint64_t dup_factor;
  uint64_t universe_mult;
  double theta;
  int build_cols;
  int probe_cols;
};

const DataConfig kConfigs[] = {
    {"base", 1000, 4000, 2, 2, 0.0, 2, 2},
    {"sel_all", 1000, 4000, 2, 1, 0.0, 2, 2},
    {"sel_quarter", 1000, 4000, 2, 4, 0.0, 2, 2},
    {"sel_tenth", 1000, 4000, 2, 10, 0.0, 2, 2},
    {"sel_rare", 1000, 4000, 2, 50, 0.0, 2, 2},
    {"dup_unique", 1000, 4000, 1, 2, 0.0, 2, 2},
    {"dup_4", 1000, 4000, 4, 2, 0.0, 2, 2},
    {"dup_16", 1000, 4000, 16, 2, 0.0, 2, 2},
    {"pay_narrow", 1000, 4000, 2, 2, 0.0, 1, 1},
    {"pay_build_wide", 1000, 4000, 2, 2, 0.0, 3, 2},
    {"pay_probe_wide", 1000, 4000, 2, 2, 0.0, 2, 4},
    {"zipf_mild", 1000, 4000, 2, 2, 0.5, 2, 2},
    {"zipf_medium", 1000, 4000, 2, 2, 0.8, 2, 2},
    {"zipf_heavy", 1000, 4000, 2, 2, 1.2, 2, 2},
    {"ratio_1_1", 2000, 2000, 2, 2, 0.0, 2, 2},
    {"ratio_1_8", 500, 4000, 2, 2, 0.0, 2, 2},
    {"ratio_1_32", 250, 8000, 2, 2, 0.0, 2, 2},
};

const JoinKind kKinds[] = {
    JoinKind::kInner,      JoinKind::kProbeSemi, JoinKind::kProbeAnti,
    JoinKind::kBuildSemi,  JoinKind::kBuildAnti, JoinKind::kLeftOuter,
    JoinKind::kRightOuter, JoinKind::kMark,
};

// The issue's floor: at least 100 distinct seeded workloads.
static_assert(sizeof(kConfigs) / sizeof(kConfigs[0]) *
                      sizeof(kKinds) / sizeof(kKinds[0]) >=
                  100,
              "advisor property sweep must cover at least 100 workloads");

IntRows MakeBuildRows(const DataConfig& cfg, uint64_t seed) {
  const uint64_t universe =
      std::max<uint64_t>(1, cfg.build_rows / cfg.dup_factor);
  Rng rng(seed);
  IntRows out;
  out.reserve(cfg.build_rows);
  for (uint64_t i = 0; i < cfg.build_rows; ++i) {
    std::vector<int64_t> row(cfg.build_cols);
    row[0] = static_cast<int64_t>(rng.Below(universe));
    for (int c = 1; c < cfg.build_cols; ++c) {
      row[c] = static_cast<int64_t>(rng.Next() & 0xFFFF);
    }
    out.push_back(std::move(row));
  }
  return out;
}

IntRows MakeProbeRows(const DataConfig& cfg, uint64_t seed) {
  const uint64_t build_universe =
      std::max<uint64_t>(1, cfg.build_rows / cfg.dup_factor);
  const uint64_t universe = build_universe * cfg.universe_mult;
  Rng rng(seed);
  ZipfGenerator zipf(universe, cfg.theta);
  IntRows out;
  out.reserve(cfg.probe_rows);
  for (uint64_t i = 0; i < cfg.probe_rows; ++i) {
    std::vector<int64_t> row(cfg.probe_cols);
    row[0] = cfg.theta > 0 ? static_cast<int64_t>(zipf.Next(rng) - 1)
                           : static_cast<int64_t>(rng.Below(universe));
    for (int c = 1; c < cfg.probe_cols; ++c) {
      row[c] = static_cast<int64_t>(rng.Next() & 0xFFFF);
    }
    out.push_back(std::move(row));
  }
  return out;
}

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

// Count-per-distinct-output-row plan: grouping by every join output column
// with COUNT(*) preserves the full output multiset, so two strategies
// producing equal results here produce byte-identical join output.
std::unique_ptr<PlanNode> CountPlan(const Table* build, const Table* probe,
                                    JoinKind kind,
                                    std::vector<ScanPredicate> build_preds = {},
                                    const std::string& build_key = "b0",
                                    const std::string& probe_key = "p0") {
  auto join = Join(ScanTable(build, std::move(build_preds)), ScanTable(probe),
                   {{build_key, probe_key}}, kind,
                   kind == JoinKind::kMark ? "mark" : "");
  std::vector<std::string> group_by;
  for (const auto& col : join->OutputColumns()) group_by.push_back(col.name);
  return Aggregate(std::move(join), std::move(group_by),
                   {AggDef::CountStar("n")});
}

// ---- Decision surfaces ---------------------------------------------------

AdvisorOptions PinnedCaches() {
  AdvisorOptions opt;
  opt.l2_bytes = 1ull << 20;
  opt.profile = &CostProfile::Reference();
  return opt;
}

// The reference profile was measured on a host with a 2 MiB L2.
AdvisorOptions ReferenceHost() {
  AdvisorOptions opt;
  opt.l2_bytes = 2ull << 20;
  opt.profile = &CostProfile::Reference();
  return opt;
}

TEST(AdvisorDecide, NeverPartitionsWhenBuildFitsL2) {
  const AdvisorOptions opt = PinnedCaches();
  for (uint64_t build : {100ull, 1000ull, 10000ull, 20000ull}) {
    for (uint32_t width : {8u, 16u, 32u, 64u}) {
      for (uint64_t probe : {1000ull, 100000ull, 10000000ull}) {
        JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, build, build,
                                             probe, width, 8, 0, opt);
        if (d.est_ht_bytes <= opt.l2_bytes) {
          EXPECT_EQ(d.choice, JoinStrategy::kBHJ)
              << "build=" << build << " width=" << width << " probe=" << probe;
        }
      }
    }
  }
  JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, 1000, 1000, 1000000,
                                       8, 8, 0, opt);
  EXPECT_EQ(d.choice, JoinStrategy::kBHJ);
  EXPECT_STREQ(d.reason, "build fits L2");
}

TEST(AdvisorDecide, HugeNarrowBuildPartitions) {
  const AdvisorOptions opt = PinnedCaches();
  // 10M narrow build tuples against a 100M probe: the global table is
  // DRAM-resident, partitioning traffic amortizes — the paper's RJ window.
  JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, 10000000, 10000000,
                                       100000000, 8, 8, 0, opt);
  EXPECT_EQ(d.choice, JoinStrategy::kRJ);
  EXPECT_GT(d.est_ht_bytes, uint64_t{16} << 20);
  EXPECT_LT(d.cost_rj, d.cost_bhj);
}

TEST(AdvisorDecide, SelectiveBuildPrefersBloomRadix) {
  const AdvisorOptions opt = PinnedCaches();
  // The build scan keeps 1% of its base table: under FK containment most
  // probe tuples cannot join, so the Bloom filter prunes them before the
  // probe side is partitioned (the BRJ case of Section 4.4).
  JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, 1000000, 100000000,
                                       100000000, 8, 8, 0, opt);
  EXPECT_EQ(d.choice, JoinStrategy::kBRJ);
  EXPECT_LT(d.est_pass_rate, 0.8);
  EXPECT_LT(d.cost_brj, d.cost_rj);
}

TEST(AdvisorDecide, UncertainFilterBenefitGoesAdaptive) {
  const AdvisorOptions opt = PinnedCaches();
  // Nearly-unfiltered build: the modeled pass rate is high, so the filter
  // may not pay for itself — the adaptive BRJ hedges by sampling at runtime.
  JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, 8000000, 10000000,
                                       100000000, 8, 8, 0, opt);
  EXPECT_EQ(d.choice, JoinStrategy::kBRJAdaptive);
  EXPECT_GE(d.est_pass_rate, 0.8);
}

TEST(AdvisorDecide, AntiJoinsNeverChooseBloom) {
  const AdvisorOptions opt = PinnedCaches();
  // kProbeAnti cannot use the filter (a false positive would drop a result
  // row): with the BRJ off the table, the same shapes resolve to RJ or BHJ.
  JoinDecision selective = JoinAdvisor::Decide(
      JoinKind::kProbeAnti, 100000, 10000000, 100000000, 8, 8, 0, opt);
  EXPECT_NE(selective.choice, JoinStrategy::kBRJ);
  EXPECT_NE(selective.choice, JoinStrategy::kBRJAdaptive);
  EXPECT_EQ(selective.cost_brj, selective.cost_rj);
  JoinDecision huge = JoinAdvisor::Decide(JoinKind::kProbeAnti, 10000000,
                                          10000000, 100000000, 8, 8, 0, opt);
  EXPECT_EQ(huge.choice, JoinStrategy::kRJ);
}

TEST(AdvisorDecide, MarginKeepsBHJWhenPartitioningWinsNarrowly) {
  const AdvisorOptions opt = PinnedCaches();
  // Wide probe tuples partition slowly, and each join below the probe side
  // adds to it: some depth models RJ slightly cheaper than BHJ, but not by
  // the required margin — "when in doubt, do not partition".
  bool found = false;
  for (int depth = 0; depth <= 12 && !found; ++depth) {
    JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, 1000000, 1000000,
                                         10000000, 8, 56, depth, opt);
    if (d.cost_rj >= d.cost_bhj || d.cost_rj < opt.partition_margin * d.cost_bhj) {
      continue;
    }
    found = true;
    EXPECT_EQ(d.choice, JoinStrategy::kBHJ) << "depth=" << depth;
    EXPECT_STREQ(d.reason, "partitioning not worth the time");
  }
  EXPECT_TRUE(found);
}

TEST(AdvisorDecide, SmallProbeNeverPartitions) {
  const AdvisorOptions opt = PinnedCaches();
  // A DRAM-sized build under a smaller probe side: partitioning would save
  // fewer probe misses than it moves build tuples.
  JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, 10000000, 10000000,
                                       5000000, 8, 8, 0, opt);
  EXPECT_EQ(d.choice, JoinStrategy::kBHJ);
  EXPECT_STREQ(d.reason, "probe smaller than build");
  EXPECT_EQ(d.cost_bhj, 0.0);  // settled before costing
}

// Workload B at scale divisor 64 (2 M x 2 M four-byte keys): an 80 MB table
// probed once per tuple. The paper's RJ window.
TEST(AdvisorDecide, WorkloadBShapePicksRadix) {
  JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, 2000000, 2000000,
                                       2000000, 4, 4, 0, ReferenceHost());
  EXPECT_EQ(d.choice, JoinStrategy::kRJ);
  EXPECT_LT(d.cost_rj, 0.5 * d.cost_bhj);
}

// Workload A at 10% matches (Fig. 14): 256 Ki build keys 1..256 Ki, 4 Mi
// probe keys of which 90% fall outside the build key's range, which the
// histograms report.
TEST(AdvisorDecide, SelectivityWorkloadShapePicksBloomRadix) {
  JoinDecision d = JoinAdvisor::Decide(JoinKind::kInner, 262144, 262144,
                                       4194304, 8, 8, 0, ReferenceHost(),
                                       nullptr, /*probe_in_range=*/0.1);
  EXPECT_EQ(d.choice, JoinStrategy::kBRJ);
  EXPECT_LE(d.est_pass_rate, 0.2);
  // Without the range bound FK containment alone says every probe passes.
  JoinDecision fk = JoinAdvisor::Decide(JoinKind::kInner, 262144, 262144,
                                        4194304, 8, 8, 0, ReferenceHost());
  EXPECT_EQ(fk.est_pass_rate, 1.0);
}

TEST(AdvisorDecide, PipelineDepthPenalizesPartitioning) {
  const AdvisorOptions opt = PinnedCaches();
  // Deeper probe pipelines re-materialize wider tuples per radix join
  // (Section 5.2.3's pipeline-depth sweep): the same shape that partitions
  // at depth 0 stays non-partitioned deep in a join tree.
  JoinDecision shallow = JoinAdvisor::Decide(JoinKind::kInner, 10000000,
                                             10000000, 100000000, 8, 8, 0, opt);
  JoinDecision deep = JoinAdvisor::Decide(JoinKind::kInner, 10000000, 10000000,
                                          100000000, 8, 8, 7, opt);
  EXPECT_GT(deep.cost_rj, shallow.cost_rj);
  EXPECT_EQ(shallow.choice, JoinStrategy::kRJ);
}

// ---- The calibrated profile ----------------------------------------------

// An 80 Ki-row build of 8-byte rows (a 3.2 MB table, the 2 MiB size class)
// under twice as many probes, with a modeled L2 small enough that the L2
// rule does not settle it.
JoinDecision DecideCalibrating(const CostProfile& profile) {
  AdvisorOptions opt;
  opt.l2_bytes = 64 << 10;
  opt.profile = &profile;
  return JoinAdvisor::Decide(JoinKind::kInner, 80000, 80000, 160000, 8, 8, 0,
                             opt);
}

TEST(CostProfile, RacingDecisionsCalibrateOncePerClass) {
  CostProfile profile;
  std::vector<JoinDecision> decisions(4);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back(
        [&, t] { decisions[t] = DecideCalibrating(profile); });
  }
  for (std::thread& t : threads) t.join();
  // One BHJ size class and the radix building blocks.
  EXPECT_EQ(profile.calibrations(), 2);
  double paid = 0;
  for (const JoinDecision& d : decisions) {
    EXPECT_GT(d.cost_bhj, 0.0);
    EXPECT_EQ(d.cost_bhj, decisions[0].cost_bhj);
    paid += d.calibration_ms;
  }
  EXPECT_GT(paid, 0.0);
  // Memoized: a later decision of the class pays nothing.
  EXPECT_EQ(DecideCalibrating(profile).calibration_ms, 0.0);
  EXPECT_EQ(profile.calibrations(), 2);
}

TEST(CostProfile, CalibrationHoldsAtMostTheDecisionsTable) {
  CostProfile profile;
  MemoryGovernor& gov = MemoryGovernor::Global();
  gov.ResetCountersForTest();
  const uint64_t before = gov.reserved();
  const JoinDecision d = DecideCalibrating(profile);
  ASSERT_GT(d.calibration_ms, 0.0);
  EXPECT_LE(gov.high_water() - before, d.est_ht_bytes);
  EXPECT_EQ(gov.reserved(), before);  // everything freed again
}

TEST(CostProfile, BhjProbeNeverFallsAsTheTableGrows) {
  CostProfile profile;
  // Calibrate a large class before a small one, then read them in order.
  const uint64_t sizes[] = {256ull << 10, 1ull << 20, 4ull << 20};
  double ms = 0;
  profile.Bhj(sizes[2], sizes[2], &ms);
  profile.Bhj(sizes[0], sizes[0], &ms);
  double last = 0;
  for (uint64_t bytes : sizes) {
    const BhjCosts c = profile.Bhj(bytes, bytes, &ms);
    EXPECT_GT(c.build_ns, 0.0);
    EXPECT_GE(c.probe_ns, last) << bytes;
    last = c.probe_ns;
  }
  // The reference profile never calibrates.
  const CostProfile& ref = CostProfile::Reference();
  double ref_ms = 0;
  ref.Bhj(1ull << 30, 1ull << 30, &ref_ms);
  ref.Partition(1ull << 30, &ref_ms);
  EXPECT_EQ(ref_ms, 0.0);
  EXPECT_EQ(ref.calibrations(), 0);
}

// ---- AdvisePlan: per-join decisions with executor numbering --------------

TEST(AdvisorPlan, WalksPlanWithPostOrderIdsAndWidths) {
  Table dim1 = MakeTable("ad_dim1", "d1_", MakeBuildRows({"", 100, 0, 1, 1, 0.0, 1, 0}, 3), 1);
  Table dim2 = MakeTable("ad_dim2", "d2_", MakeBuildRows({"", 200, 0, 1, 1, 0.0, 1, 0}, 4), 1);
  IntRows fact_rows;
  Rng rng(7);
  for (int64_t i = 0; i < 20000; ++i) {
    fact_rows.push_back({static_cast<int64_t>(rng.Below(200)),
                         static_cast<int64_t>(rng.Below(400))});
  }
  Table fact = MakeTable("ad_fact", "f_", fact_rows, 2);

  auto inner = Join(ScanTable(&dim2), ScanTable(&fact), {{"d2_0", "f_1"}});
  auto outer = Join(ScanTable(&dim1), std::move(inner), {{"d1_0", "f_0"}});
  auto plan = Aggregate(std::move(outer), {}, {AggDef::CountStar("n")});

  auto advice = JoinAdvisor::AdvisePlan(*plan, PinnedCaches());
  ASSERT_EQ(advice.size(), 2u);
  // Post-order: the inner join (build = dim2) is #0, the outer #1.
  EXPECT_EQ(advice.at(0).est_build_rows, 200u);
  EXPECT_EQ(advice.at(0).est_probe_rows, 20000u);
  EXPECT_EQ(advice.at(0).build_width, 8u);   // d2_0
  EXPECT_EQ(advice.at(0).probe_width, 16u);  // f_0 (outer key) + f_1
  EXPECT_EQ(advice.at(0).probe_depth, 0);
  EXPECT_EQ(advice.at(1).est_build_rows, 100u);
  // The outer join's probe estimate is the inner join's output estimate
  // (200 * 20000 / ~400 distinct f_1 keys = 10000).
  EXPECT_EQ(advice.at(1).est_probe_rows, 10000u);
  EXPECT_EQ(advice.at(1).probe_depth, 1);  // the inner join feeds its probe
  // Everything fits L2 here.
  EXPECT_EQ(advice.at(0).choice, JoinStrategy::kBHJ);
  EXPECT_EQ(advice.at(1).choice, JoinStrategy::kBHJ);
}

// ---- Property tests: kAuto result-equivalent to every manual strategy ----

class AdvisorPropertyTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(AdvisorPropertyTest, AutoMatchesEveryManualStrategy) {
  const JoinKind kind = GetParam();
  const uint64_t seed = 9000 + static_cast<uint64_t>(kind) * 131;
  std::vector<std::unique_ptr<ThreadPool>> pools;
  for (int t = 1; t <= 3; ++t) pools.push_back(std::make_unique<ThreadPool>(t));

  size_t idx = 0;
  for (const DataConfig& cfg : kConfigs) {
    SCOPED_TRACE(std::string("config=") + cfg.name);
    Table build = MakeTable(std::string("apb_") + cfg.name, "b",
                            MakeBuildRows(cfg, seed + idx * 2), cfg.build_cols);
    Table probe = MakeTable(std::string("app_") + cfg.name, "p",
                            MakeProbeRows(cfg, seed + idx * 2 + 1),
                            cfg.probe_cols);
    auto plan = CountPlan(&build, &probe, kind);
    ThreadPool* pool = pools[idx % pools.size()].get();

    auto run = [&](ExecOptions options, QueryStats* stats = nullptr) {
      options.num_threads = pool->num_threads();
      return ExecuteQuery(*plan, options, stats, pool);
    };

    ExecOptions manual;
    manual.join_strategy = JoinStrategy::kBHJ;
    QueryResult reference = run(manual);
    for (JoinStrategy s :
         {JoinStrategy::kRJ, JoinStrategy::kBRJ, JoinStrategy::kBRJAdaptive}) {
      SCOPED_TRACE(JoinStrategyName(s));
      manual.join_strategy = s;
      EXPECT_TRUE(run(manual).ApproxEquals(reference));
    }

    // kAuto with the real cost model: whatever it picks must match.
    ExecOptions auto_default;
    auto_default.join_strategy = JoinStrategy::kAuto;
    EXPECT_TRUE(run(auto_default).ApproxEquals(reference)) << "kAuto default";

    // kAuto with an absurdly small modeled L2, the reference profile and no
    // margin: every join is forced onto the radix path across the whole
    // sweep, and runs the strategy it was advised.
    ExecOptions auto_forced;
    auto_forced.join_strategy = JoinStrategy::kAuto;
    auto_forced.advisor.l2_bytes = 64;
    auto_forced.advisor.profile = &CostProfile::Reference();
    auto_forced.advisor.partition_margin = 1000.0;
    QueryStats forced_stats;
    EXPECT_TRUE(run(auto_forced, &forced_stats).ApproxEquals(reference))
        << "kAuto forced-partitioned";
    const JoinMetrics* jm = forced_stats.metrics.FindJoin(0);
    ASSERT_NE(jm, nullptr);
    ASSERT_TRUE(jm->advisor.present);
    EXPECT_NE(jm->advisor.choice, JoinStrategy::kBHJ);
    EXPECT_EQ(jm->strategy, jm->advisor.choice);
    ++idx;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AdvisorPropertyTest, ::testing::ValuesIn(kKinds),
    [](const ::testing::TestParamInfo<JoinKind>& info) {
      std::string name = JoinKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Misestimated builds run the plan-time choice ------------------------

// Rows of (key, payload) with `key_universe` distinct keys.
IntRows KeyedBuildRows(uint64_t rows, uint64_t key_universe) {
  IntRows out;
  for (uint64_t i = 0; i < rows; ++i) {
    out.push_back({static_cast<int64_t>(i % key_universe),
                   static_cast<int64_t>(i)});
  }
  return out;
}

ExecOptions TinyCacheAutoOptions() {
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  // A tiny modeled L2 keeps the build out of the L2 rule, and no margin
  // makes the advisor pick a partitioned strategy.
  options.advisor.l2_bytes = 64;
  options.advisor.profile = &CostProfile::Reference();
  options.advisor.partition_margin = 1000.0;
  options.num_threads = 2;
  return options;
}

TEST(AdvisorLowering, AdvisedRadixJoinRunsPlannedStrategy) {
  // Exact estimates (no predicate) and a forced partitioned pick: the join
  // lowers to the radix join the advisor chose and partitions.
  Table build = MakeTable("gb", "b", KeyedBuildRows(20000, 500), 2);
  IntRows probe_rows;
  for (int64_t i = 0; i < 40000; ++i) probe_rows.push_back({i % 1000});
  Table probe = MakeTable("gp", "p", probe_rows, 1);
  auto plan = CountPlan(&build, &probe, JoinKind::kInner);

  ExecOptions bhj;
  bhj.join_strategy = JoinStrategy::kBHJ;
  bhj.num_threads = 2;
  QueryResult reference = ExecuteQuery(*plan, bhj);

  QueryStats stats;
  QueryResult result = ExecuteQuery(*plan, TinyCacheAutoOptions(), &stats);
  EXPECT_TRUE(result.ApproxEquals(reference));

  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  ASSERT_TRUE(jm->advisor.present);
  EXPECT_NE(jm->advisor.choice, JoinStrategy::kBHJ);
  EXPECT_EQ(jm->strategy, jm->advisor.choice);
  EXPECT_EQ(jm->advisor.est_build_tuples, 20000u);
  EXPECT_TRUE(jm->has_partitions);
  EXPECT_FALSE(jm->has_hash_table);
  EXPECT_GT(stats.partition_bytes, 0u);
}

// A build estimate corrupted through est_scale: undersold 100x, the build
// stays out of the L2 rule and the join partitions with a fan-out sized for
// 1/100 of its build; oversold 64x, the probe looks smaller than the build
// and the join runs BHJ. The 0 leg reads PJOIN_EST_SCALE (1 unless the
// environment sets it), so a run can add its own factor. Each leg runs the
// strategy planned from its estimate and must match manual BHJ.
class AdvisorMisestimateTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(AdvisorMisestimateTest, PlannedStrategyMatchesBHJ) {
  const JoinKind kind = GetParam();
  Table build = MakeTable("gk_b", "b", KeyedBuildRows(4000, 250), 2);
  IntRows probe_rows;
  Rng rng(23);
  for (int64_t i = 0; i < 8000; ++i) {
    probe_rows.push_back({static_cast<int64_t>(rng.Below(500))});
  }
  Table probe = MakeTable("gk_p", "p", probe_rows, 1);

  ExecOptions bhj;
  bhj.join_strategy = JoinStrategy::kBHJ;
  bhj.num_threads = 2;
  QueryResult reference = ExecuteQuery(*CountPlan(&build, &probe, kind), bhj);

  for (double scale : {0.01, 64.0, 0.0}) {
    SCOPED_TRACE("est_scale=" + std::to_string(scale));
    ExecOptions auto_options = TinyCacheAutoOptions();
    auto_options.advisor.est_scale = scale;
    QueryStats stats;
    QueryResult result =
        ExecuteQuery(*CountPlan(&build, &probe, kind), auto_options, &stats);
    EXPECT_TRUE(result.ApproxEquals(reference));
    const JoinMetrics* jm = stats.metrics.FindJoin(0);
    ASSERT_NE(jm, nullptr);
    ASSERT_TRUE(jm->advisor.present);
    EXPECT_EQ(jm->strategy, jm->advisor.choice);
    EXPECT_EQ(jm->build_tuples, 4000u);
    if (scale == 0.01) {
      EXPECT_EQ(jm->advisor.est_build_tuples, 40u);
      EXPECT_NE(jm->advisor.choice, JoinStrategy::kBHJ);
      ASSERT_TRUE(jm->has_partitions);
      // The fan-out is the one the estimate asked for.
      const RadixBits bits =
          ChooseRadixBits(jm->advisor.est_build_tuples | 1,
                          8 + jm->build_width);
      EXPECT_EQ(jm->build_side.bits1, bits.bits1);
      EXPECT_EQ(jm->build_side.bits2, bits.bits2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, AdvisorMisestimateTest, ::testing::ValuesIn(kKinds),
    [](const ::testing::TestParamInfo<JoinKind>& info) {
      std::string name = JoinKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Oracle accuracy on the TPC-H join map -------------------------------

TEST(AdvisorOracle, TpchOverwhelminglyNonPartitioned) {
  // The paper's headline (Figure 1): across the TPC-H join map, partitioning
  // wins in almost no join. The advisor must reach the same conclusion —
  // with the reference profile so the decision is machine-independent, and
  // at SF 0.01 with a tenth of the reference host's L2, so that every table
  // compares with the L2 as it does at SF 0.1 on that host.
  auto db = GenerateTpch(0.01);
  ThreadPool pool(2);
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.num_threads = 2;
  options.advisor = ReferenceHost();
  options.advisor.l2_bytes /= 10;

  int total = 0;
  int non_partitioned = 0;
  for (const TpchQuery& q : TpchQueries()) {
    SCOPED_TRACE(q.name);
    QueryStats stats;
    q.run(*db, options, &stats, &pool);
    // Multi-step queries renumber every step's joins into one post-order
    // sequence; a join's strategy is the engine that ran.
    const std::vector<JoinMetrics>& joins = stats.metrics.joins();
    ASSERT_EQ(static_cast<int>(joins.size()), q.num_joins);
    for (int j = 0; j < q.num_joins; ++j) {
      EXPECT_EQ(joins[j].join_id, j);
      EXPECT_GT(joins[j].build_width, 0u);
      EXPECT_GT(joins[j].probe_width, 0u);
      ++total;
      if (joins[j].strategy == JoinStrategy::kBHJ) ++non_partitioned;
    }
  }
  EXPECT_EQ(total, TotalTpchJoins());
  // kAuto keeps every TPC-H join unpartitioned (the paper found one of 59
  // where partitioning won, by a margin the advisor does not chase).
  EXPECT_EQ(non_partitioned, total)
      << non_partitioned << " of " << total << " joins chose BHJ";
}

TEST(AdvisorOracle, TpchAutoResultsMatchManualStrategies) {
  // Result equivalence on real query shapes, not just synthetic sweeps:
  // every TPC-H query must return identical rows under kAuto and manuals.
  auto db = GenerateTpch(0.005);
  ThreadPool pool(2);
  for (const TpchQuery& q : TpchQueries()) {
    SCOPED_TRACE(q.name);
    ExecOptions options;
    options.num_threads = 2;
    options.join_strategy = JoinStrategy::kBHJ;
    QueryResult reference = q.run(*db, options, nullptr, &pool);
    options.join_strategy = JoinStrategy::kAuto;
    EXPECT_TRUE(q.run(*db, options, nullptr, &pool).ApproxEquals(reference));
  }
}

}  // namespace
}  // namespace pjoin
