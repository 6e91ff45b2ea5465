// Tests for the query-wide observability layer: operator/pipeline/join
// actuals recorded in QueryMetrics, the EXPLAIN ANALYZE rendering, and the
// stable JSON export.
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/explain.h"
#include "engine/plan.h"
#include "exec/morsel.h"
#include "spill/memory_governor.h"
#include "tpch/queries.h"
#include "util/rng.h"

namespace pjoin {
namespace {

// Skips the JSON string starting at json[*pos] and returns its raw contents.
std::string ReadJsonString(const std::string& json, size_t* pos) {
  std::string s;
  for (++*pos; json[*pos] != '"'; ++*pos) {
    if (json[*pos] == '\\') s += json[(*pos)++];
    s += json[*pos];
  }
  ++*pos;
  return s;
}

// Collects the key paths of the JSON value at json[*pos], e.g.
// "joins[].spill.bytes_written"; array elements fold into "[]". Covers what
// QueryMetrics::ToJson emits: objects, arrays, strings, bare scalars.
void CollectKeyPaths(const std::string& json, size_t* pos,
                     const std::string& path, std::set<std::string>* out) {
  const char c = json[*pos];
  if (c == '{' || c == '[') {
    const char close = c == '{' ? '}' : ']';
    for (++*pos; json[*pos] != close;) {
      if (json[*pos] == ',') ++*pos;
      std::string child = path + "[]";
      if (c == '{') {
        const std::string key = ReadJsonString(json, pos);
        ++*pos;  // ':'
        child = path.empty() ? key : path + "." + key;
        out->insert(child);
      }
      CollectKeyPaths(json, pos, child, out);
    }
    ++*pos;
  } else if (c == '"') {
    ReadJsonString(json, pos);
  } else {
    while (json[*pos] != ',' && json[*pos] != '}' && json[*pos] != ']') ++*pos;
  }
}

std::set<std::string> JsonKeyPaths(const std::string& json) {
  std::set<std::string> paths;
  size_t pos = 0;
  CollectKeyPaths(json, &pos, "", &paths);
  EXPECT_EQ(pos, json.size()) << json;
  return paths;
}

// Star-schema fixture: fact(f_k1, f_k2, f_v) joins dim1(d1_k) and
// dim2(d2_k). Half of the fact foreign keys have partners on each
// dimension, so every join has a known selectivity.
class MetricsTest : public ::testing::Test {
 protected:
  MetricsTest()
      : dim1_("dim1", Schema({{"d1_k", DataType::kInt64, 0}})),
        dim2_("dim2", Schema({{"d2_k", DataType::kInt64, 0}})),
        fact_("fact", Schema({{"f_k1", DataType::kInt64, 0},
                              {"f_k2", DataType::kInt64, 0},
                              {"f_v", DataType::kInt64, 0}})) {
    for (int64_t k = 0; k < kDim1Rows; ++k) {
      dim1_.column(0).AppendInt64(k);
      dim1_.FinishRow();
    }
    for (int64_t k = 0; k < kDim2Rows; ++k) {
      dim2_.column(0).AppendInt64(k);
      dim2_.FinishRow();
    }
    Rng rng(7);
    for (int64_t i = 0; i < kFactRows; ++i) {
      fact_.column(0).AppendInt64(
          static_cast<int64_t>(rng.Below(2 * kDim1Rows)));
      fact_.column(1).AppendInt64(
          static_cast<int64_t>(rng.Below(2 * kDim2Rows)));
      fact_.column(2).AppendInt64(static_cast<int64_t>(rng.Next() & 0xFF));
      fact_.FinishRow();
    }
  }

  std::unique_ptr<PlanNode> TwoJoinPlan() {
    auto inner = Join(ScanTable(&dim2_), ScanTable(&fact_),
                      {{"d2_k", "f_k2"}});
    auto outer = Join(ScanTable(&dim1_), std::move(inner),
                      {{"d1_k", "f_k1"}});
    return Aggregate(std::move(outer), {}, {AggDef::CountStar("n")});
  }

  static constexpr int64_t kDim1Rows = 100;
  static constexpr int64_t kDim2Rows = 200;
  static constexpr int64_t kFactRows = 20000;

  Table dim1_;
  Table dim2_;
  Table fact_;
};

TEST_F(MetricsTest, RowsOutConsistentAcrossStrategies) {
  auto plan = TwoJoinPlan();
  std::vector<JoinStrategy> strategies = {JoinStrategy::kBHJ,
                                          JoinStrategy::kRJ,
                                          JoinStrategy::kBRJ};
  std::vector<QueryStats> stats(strategies.size());
  std::vector<int64_t> counts;
  for (size_t s = 0; s < strategies.size(); ++s) {
    ExecOptions options;
    options.join_strategy = strategies[s];
    options.num_threads = 4;
    QueryResult result = ExecuteQuery(*plan, options, &stats[s]);
    counts.push_back(std::get<int64_t>(result.rows[0][0]));
  }
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(counts[0], counts[2]);

  // The same plan over the same data must report identical cardinalities
  // from every strategy: per-join output rows and matched probe tuples.
  for (int join_id = 0; join_id < 2; ++join_id) {
    const JoinMetrics* bhj = stats[0].metrics.FindJoin(join_id);
    const JoinMetrics* rj = stats[1].metrics.FindJoin(join_id);
    const JoinMetrics* brj = stats[2].metrics.FindJoin(join_id);
    ASSERT_NE(bhj, nullptr);
    ASSERT_NE(rj, nullptr);
    ASSERT_NE(brj, nullptr);
    EXPECT_EQ(bhj->rows_out, rj->rows_out) << "join " << join_id;
    EXPECT_EQ(bhj->rows_out, brj->rows_out) << "join " << join_id;
    EXPECT_EQ(bhj->probe_matched, rj->probe_matched) << "join " << join_id;
    EXPECT_GT(bhj->rows_out, 0u);
  }

  // The top join feeds the aggregate: its output must equal the aggregate's
  // input row count.
  for (const QueryStats& st : stats) {
    const JoinMetrics* top = st.metrics.FindJoin(1);
    ASSERT_NE(top, nullptr);
    EXPECT_EQ(top->rows_out, st.metrics.TotalsFor("hash_agg").rows_in);
    EXPECT_EQ(static_cast<int64_t>(top->rows_out), counts[0]);
  }

  // Strategy-specific internals are present.
  EXPECT_TRUE(stats[0].metrics.FindJoin(0)->has_hash_table);
  EXPECT_FALSE(stats[0].metrics.FindJoin(0)->has_partitions);
  EXPECT_TRUE(stats[1].metrics.FindJoin(0)->has_partitions);
  EXPECT_EQ(stats[0].metrics.FindJoin(0)->hash_table.build_tuples,
            static_cast<uint64_t>(kDim2Rows));
}

TEST_F(MetricsTest, MorselCountsSumToTotals) {
  auto plan = TwoJoinPlan();
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBHJ;
  options.num_threads = 4;
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);

  ASSERT_FALSE(stats.metrics.pipelines().empty());
  bool found_fact_scan = false;
  for (const PipelineMetrics& pm : stats.metrics.pipelines()) {
    ASSERT_EQ(pm.morsels_per_worker.size(), 4u) << pm.label;
    uint64_t sum = 0;
    for (uint64_t m : pm.morsels_per_worker) sum += m;
    EXPECT_EQ(sum, pm.total_morsels()) << pm.label;
    if (pm.label == "scan fact") {
      found_fact_scan = true;
      // Source morsels are fixed-size row ranges over the base table.
      EXPECT_EQ(pm.total_morsels(),
                (static_cast<uint64_t>(kFactRows) + kDefaultMorselSize - 1) /
                    kDefaultMorselSize);
    }
  }
  EXPECT_TRUE(found_fact_scan);

  // Scan operator totals agree with the per-scan records.
  uint64_t scans_passed = 0;
  for (const ScanMetrics& sm : stats.metrics.scans()) {
    scans_passed += sm.rows_passed;
  }
  EXPECT_EQ(stats.metrics.TotalsFor("scan").rows_out, scans_passed);
  EXPECT_EQ(stats.metrics.source_tuples(),
            static_cast<uint64_t>(kDim1Rows + kDim2Rows + kFactRows));
}

TEST_F(MetricsTest, BloomPassRateTracksSelectivity) {
  // Single join: dim keys [0, 1000), fact keys uniform in [0, 4000) — the
  // analytic filter pass rate is 0.25 plus the (small) false-positive rate
  // of a ~16-bits-per-key register-blocked filter.
  Table dim("dim", Schema({{"d_k", DataType::kInt64, 0}}));
  for (int64_t k = 0; k < 1000; ++k) {
    dim.column(0).AppendInt64(k);
    dim.FinishRow();
  }
  Table fact("factb", Schema({{"g_k", DataType::kInt64, 0}}));
  Rng rng(11);
  const int64_t fact_rows = 50000;
  for (int64_t i = 0; i < fact_rows; ++i) {
    fact.column(0).AppendInt64(static_cast<int64_t>(rng.Below(4000)));
    fact.FinishRow();
  }
  auto plan = Aggregate(
      Join(ScanTable(&dim), ScanTable(&fact), {{"d_k", "g_k"}}), {},
      {AggDef::CountStar("n")});

  ExecOptions options;
  options.join_strategy = JoinStrategy::kBRJ;
  options.num_threads = 2;
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);

  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  ASSERT_NE(jm, nullptr);
  EXPECT_TRUE(jm->bloom.applicable);
  EXPECT_EQ(jm->bloom.probes, static_cast<uint64_t>(fact_rows));
  EXPECT_EQ(jm->bloom.build_keys, 1000u);
  const double pass = jm->bloom.pass_rate();
  EXPECT_GE(pass, 0.24);
  EXPECT_LE(pass, 0.30);
  // The filter's negatives are exactly the tuples the executor reports as
  // pruned, and none of them reached the partitioner.
  EXPECT_EQ(stats.bloom_dropped, jm->bloom.negatives);
  EXPECT_EQ(jm->probe_side.tuples,
            static_cast<uint64_t>(fact_rows) - jm->bloom.negatives);
}

TEST_F(MetricsTest, ExplainAnalyzeShowsActuals) {
  auto plan = TwoJoinPlan();
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBHJ;
  options.num_threads = 2;
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);
  std::string text = ExplainAnalyzePlan(*plan, options, stats);

  // Tree annotations: every operator carries its actuals.
  EXPECT_NE(text.find("aggregate [groups:0 aggs:1] (rows_in="),
            std::string::npos);
  EXPECT_NE(text.find("join #1 [inner, BHJ]"), std::string::npos);
  EXPECT_NE(text.find("(build=100 probe="), std::string::npos);
  EXPECT_NE(text.find("ht: entries=100"), std::string::npos);
  // The rewrite pass plants a Bloom filter on the fact scan (dim1's keys
  // cover only half of f_k1's domain), which the scan line annotates.
  EXPECT_NE(text.find("rewrite: rules=bloom"), std::string::npos);
  // No closing paren: with encoding on, the line continues with the
  // enc_width/decoded/codes suffix (FOR-encoded int columns).
  EXPECT_NE(text.find("scan fact [20000 rows, bloom(j1.f_k1)] (scanned=20000 "
                      "passed=20000"),
            std::string::npos);
  // Trailing pipeline section with per-operator rows.
  EXPECT_NE(text.find("pipelines:"), std::string::npos);
  // Each pipeline line splits the parallel region from the Finish work.
  EXPECT_NE(text.find("ms finish="), std::string::npos);
  EXPECT_GT(stats.metrics.pipelines().back().finish_seconds, 0.0);
  EXPECT_NE(text.find("hash_join_probe j1"), std::string::npos);
  EXPECT_NE(text.find("morsels="), std::string::npos);

  // The radix strategies annotate their partitioner and filter internals.
  options.join_strategy = JoinStrategy::kBRJ;
  QueryStats rstats;
  ExecuteQuery(*plan, options, &rstats);
  std::string rtext = ExplainAnalyzePlan(*plan, options, rstats);
  EXPECT_NE(rtext.find("radix: "), std::string::npos);
  EXPECT_NE(rtext.find("swwcb_flushes="), std::string::npos);
  EXPECT_NE(rtext.find("bloom: "), std::string::npos);
  EXPECT_NE(rtext.find("pass_rate="), std::string::npos);
}

TEST_F(MetricsTest, ExplainAnalyzeGoldenTree) {
  // Tiny deterministic query on one thread: the full tree rendering
  // (everything before the timing section) must match byte-for-byte.
  Table d("d", Schema({{"d_k", DataType::kInt64, 0}}));
  Table f("f", Schema({{"f_k", DataType::kInt64, 0}}));
  for (int64_t k = 0; k < 2; ++k) {
    d.column(0).AppendInt64(k);
    d.FinishRow();
  }
  const int64_t fact_keys[4] = {0, 0, 1, 5};
  for (int64_t v : fact_keys) {
    f.column(0).AppendInt64(v);
    f.FinishRow();
  }
  auto plan = Aggregate(Join(ScanTable(&d), ScanTable(&f), {{"d_k", "f_k"}}),
                        {}, {AggDef::CountStar("n")});
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBHJ;
  options.num_threads = 1;
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);
  std::string text = ExplainAnalyzePlan(*plan, options, stats);
  std::string tree = text.substr(0, text.find("\ntotal:"));

  const std::string expected =
      "aggregate [groups:0 aggs:1] (rows_in=3 rows_out=1)\n"
      "  join #0 [inner, BHJ] on d_k = f_k "
      "(build=2 probe=4 matched=3 rows_out=3)\n"
      "    ht: entries=2 dir_slots=64 chained=0 "
      "mem=560B\n"
      "    scan d [2 rows] (scanned=2 passed=2)\n"
      "    scan f [4 rows] (scanned=4 passed=4)\n";
  EXPECT_EQ(tree, expected);
}

TEST_F(MetricsTest, ExplainAnalyzeShowsAdvisorDecisionAndActuals) {
  auto plan = TwoJoinPlan();
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.advisor.l2_bytes = 1 << 20;
  options.advisor.profile = &CostProfile::Reference();
  options.num_threads = 2;
  QueryStats stats;
  ExecuteQuery(*plan, options, &stats);
  std::string text = ExplainAnalyzePlan(*plan, options, stats);

  // The join line shows the resolved pick and its actuals; the advisor
  // sub-line shows the estimates it was based on — both dims fit L2.
  EXPECT_NE(text.find("join #1 [inner, auto:BHJ]"), std::string::npos);
  EXPECT_NE(text.find("(build=100 probe="), std::string::npos);
  // The outer join's probe estimate is the inner join's output estimate
  // (200 * 20000 / ~400 distinct f_k2 values = 10000).
  EXPECT_NE(text.find("advisor: est_build=100 est_probe=10000"),
            std::string::npos);
  EXPECT_NE(text.find("advisor: est_build=200 est_probe=20000"),
            std::string::npos);
  EXPECT_NE(text.find("-- build fits L2"), std::string::npos);
  // The inner join is an advised BHJ too; both run as advised.
  EXPECT_NE(text.find("join #0 [inner, auto:BHJ]"), std::string::npos);

  // The metrics record the decision for each join.
  for (int join_id = 0; join_id < 2; ++join_id) {
    const JoinMetrics* jm = stats.metrics.FindJoin(join_id);
    ASSERT_NE(jm, nullptr);
    EXPECT_TRUE(jm->advisor.present);
    EXPECT_EQ(jm->advisor.choice, JoinStrategy::kBHJ);
    EXPECT_EQ(jm->strategy, jm->advisor.choice);  // the engine that ran
    // Settled by the L2 rule, so not costed.
    EXPECT_EQ(jm->advisor.cost_bhj, 0.0);
    EXPECT_EQ(jm->advisor.cost_rj, 0.0);
  }
  // Nothing calibrated, so no calibration line.
  EXPECT_EQ(text.find("advisor: calibration="), std::string::npos);

  // Costed joins show their predicted time beside their pipelines' time.
  options.advisor.l2_bytes = 64;
  ExecuteQuery(*plan, options, &stats);
  text = ExplainAnalyzePlan(*plan, options, stats);
  EXPECT_NE(text.find("join #0 "), text.rfind("join #0 "));
  EXPECT_NE(text.find(": predicted="), std::string::npos);
  EXPECT_NE(text.find("ms measured="), std::string::npos);
  for (int join_id = 0; join_id < 2; ++join_id) {
    EXPECT_GT(stats.metrics.FindJoin(join_id)->seconds, 0.0);
  }
}

TEST_F(MetricsTest, ToJsonStableUnderAutoStrategy) {
  auto plan = TwoJoinPlan();
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.advisor.l2_bytes = 1 << 20;
  options.advisor.profile = &CostProfile::Reference();
  options.num_threads = 1;

  QueryStats a, b;
  ExecuteQuery(*plan, options, &a);
  ExecuteQuery(*plan, options, &b);
  const std::string ja = a.metrics.ToJson(/*include_timings=*/false);
  EXPECT_EQ(ja, b.metrics.ToJson(false));

  // The advisor object is present with its fixed key order.
  EXPECT_NE(ja.find("\"advisor\":{\"choice\":\"BHJ\""), std::string::npos);
  EXPECT_NE(ja.find("\"est_build_tuples\":"), std::string::npos);
  EXPECT_NE(ja.find("\"cost_bhj\":"), std::string::npos);
  // The decision's reason follows its costs.
  EXPECT_NE(ja.find("\"cost_brj\":0.000000,\"reason\":\"build fits L2\""),
            std::string::npos)
      << ja;

  // Manual strategies serialize without it (pre-advisor schema unchanged);
  // the query-level advisor section only counts calibrations.
  ExecOptions manual = options;
  manual.join_strategy = JoinStrategy::kBHJ;
  QueryStats m;
  ExecuteQuery(*plan, manual, &m);
  const std::string jm = m.metrics.ToJson(false);
  EXPECT_EQ(jm.find("\"advisor\":{\"choice\""), std::string::npos);
  EXPECT_NE(jm.find("\"advisor\":{\"calibrated_joins\":0}"),
            std::string::npos);
}

TEST_F(MetricsTest, ToJsonSchemaIsFixed) {
  // Every section is emitted whether or not its feature engaged, so a plain
  // run and a run with encoding, the advisor, a budget and spilling all
  // active share one set of key paths. Only the advisor record depends on
  // the run: it exists for advised joins alone.
  Table d("sd", Schema({{"sd_k", DataType::kInt64, 0}}));
  Table f("sf", Schema({{"sf_k", DataType::kInt64, 0}}));
  for (int64_t k = 0; k < 2; ++k) {
    d.column(0).AppendInt64(k);
    d.FinishRow();
  }
  for (int64_t k = 0; k < 4; ++k) {
    f.column(0).AppendInt64(k);
    f.FinishRow();
  }
  auto small = Aggregate(Join(ScanTable(&d), ScanTable(&f),
                              {{"sd_k", "sf_k"}}),
                         {}, {AggDef::CountStar("n")});
  ExecOptions manual;
  manual.join_strategy = JoinStrategy::kBHJ;
  manual.num_threads = 1;
  QueryStats plain;
  ExecuteQuery(*small, manual, &plain);
  ASSERT_EQ(plain.metrics.joins().size(), 1u);
  EXPECT_FALSE(plain.metrics.joins()[0].advisor.present);
  EXPECT_EQ(plain.metrics.joins()[0].spill.partitions_spilled, 0u);
  EXPECT_EQ(plain.metrics.encoding().scans_encoded, 0u);

  // A 4000-row build side cannot stay resident under 16 KiB.
  Table big("sbig", Schema({{"sb_k", DataType::kInt64, 0},
                            {"sb_v", DataType::kInt64, 0}}));
  for (int64_t k = 0; k < 4000; ++k) {
    big.column(0).AppendInt64(k);
    big.column(1).AppendInt64(k % 7);
    big.FinishRow();
  }
  auto large = Aggregate(Join(ScanTable(&big), ScanTable(&fact_),
                              {{"sb_k", "f_k1"}}),
                         {}, {AggDef::CountStar("n"), AggDef::Sum("sb_v", "s")});
  ExecOptions advised = manual;
  advised.join_strategy = JoinStrategy::kAuto;
  QueryStats busy;
  {
    ScopedMemoryBudget budget(16 * 1024);
    ExecuteQuery(*large, advised, &busy);
  }
  ASSERT_EQ(busy.metrics.joins().size(), 1u);
  EXPECT_TRUE(busy.metrics.joins()[0].advisor.present);
  EXPECT_GT(busy.metrics.joins()[0].spill.partitions_spilled, 0u);
  EXPECT_GT(busy.metrics.encoding().scans_encoded, 0u);
  EXPECT_GT(busy.metrics.governor.budget, 0u);

  const std::set<std::string> plain_keys =
      JsonKeyPaths(plain.metrics.ToJson(false));
  const std::set<std::string> busy_keys =
      JsonKeyPaths(busy.metrics.ToJson(false));
  std::set<std::string> only_busy;
  for (const std::string& key : busy_keys) {
    if (!plain_keys.count(key)) only_busy.insert(key);
  }
  for (const std::string& key : plain_keys) {
    EXPECT_TRUE(busy_keys.count(key)) << key << " missing from the busy run";
  }
  ASSERT_FALSE(only_busy.empty());
  for (const std::string& key : only_busy) {
    EXPECT_EQ(key.rfind("joins[].advisor", 0), 0u) << key;
  }
}

TEST_F(MetricsTest, ToJsonStableAcrossRuns) {
  auto plan = TwoJoinPlan();
  ExecOptions options;
  options.join_strategy = JoinStrategy::kBRJ;
  // One worker: with several, which worker claims which morsel is a
  // scheduling race, so morsels_per_worker (correctly) differs run to run.
  options.num_threads = 1;

  QueryStats a, b;
  ExecuteQuery(*plan, options, &a);
  ExecuteQuery(*plan, options, &b);

  // Without timings a single-threaded document depends only on plan and
  // data — two runs must serialize identically.
  const std::string ja = a.metrics.ToJson(/*include_timings=*/false);
  EXPECT_EQ(ja, b.metrics.ToJson(false));

  // Spot-check the schema benches and external tooling rely on.
  EXPECT_NE(ja.find("\"num_threads\":1"), std::string::npos);
  EXPECT_NE(ja.find("\"strategy\":\"BRJ\""), std::string::npos);
  EXPECT_NE(ja.find("\"pipelines\":["), std::string::npos);
  EXPECT_NE(ja.find("\"table\":\"fact\",\"rows_scanned\":20000"),
            std::string::npos);
  EXPECT_NE(ja.find("\"pass_rate\":"), std::string::npos);
  EXPECT_EQ(ja.find("\"seconds\""), std::string::npos);
  EXPECT_EQ(ja.find("\"wall_seconds\""), std::string::npos);
  EXPECT_EQ(ja.find("\"finish_seconds\""), std::string::npos);

  // The timed form adds the wall-clock fields.
  const std::string timed = a.metrics.ToJson();
  EXPECT_NE(timed.find("\"seconds\":"), std::string::npos);
  EXPECT_NE(timed.find("\"wall_seconds\":"), std::string::npos);
  EXPECT_NE(timed.find("\"finish_seconds\":"), std::string::npos);
}

TEST(MetricsMultiStep, Q21KeepsEveryStepsPipelines) {
  // Q21 aggregates lineitem twice (one scan-into-aggregate pipeline per
  // step) before its join tree. The query's record holds every step's
  // pipelines in step order, each step ending in the pipeline of its
  // aggregate, so the steps' pipeline counts sum to the query's.
  auto db = GenerateTpch(0.01);
  ExecOptions options;
  options.num_threads = 2;
  QueryStats stats;
  const TpchQuery& q21 = GetTpchQuery(21);
  q21.run(*db, options, &stats, nullptr);
  const QueryMetrics& qm = stats.metrics;

  std::vector<int> step_ends;  // pipeline index of each step's aggregate
  int last_index = 0;
  for (const OperatorMetrics& op : qm.operators()) {
    ASSERT_GE(op.pipeline_index(), last_index) << op.name();
    ASSERT_LT(op.pipeline_index(), static_cast<int>(qm.pipelines().size()));
    last_index = op.pipeline_index();
    if (op.name() == "hash_agg") step_ends.push_back(op.pipeline_index());
  }
  ASSERT_EQ(step_ends.size(), 3u);
  std::vector<size_t> step_pipelines;
  for (size_t k = 0; k < step_ends.size(); ++k) {
    step_pipelines.push_back(step_ends[k] - (k == 0 ? -1 : step_ends[k - 1]));
  }
  EXPECT_EQ(step_pipelines[0], 1u);
  EXPECT_EQ(step_pipelines[1], 1u);
  EXPECT_GT(step_pipelines[2], 1u);
  EXPECT_EQ(qm.pipelines().size(),
            step_pipelines[0] + step_pipelines[1] + step_pipelines[2]);
  for (int k : {0, 1}) {
    EXPECT_EQ(qm.pipelines()[step_ends[k]].label, "scan lineitem");
    EXPECT_GT(qm.pipelines()[step_ends[k]].finish_seconds, 0.0);
  }
  // Joins keep their query-global post-order ids.
  ASSERT_EQ(qm.joins().size(), static_cast<size_t>(q21.num_joins));
  for (int j = 0; j < q21.num_joins; ++j) {
    EXPECT_EQ(qm.joins()[j].join_id, j);
  }
  // The JSON export lists the same pipelines.
  const std::string json = qm.ToJson();
  size_t finishes = 0;
  for (size_t pos = json.find("\"finish_seconds\""); pos != std::string::npos;
       pos = json.find("\"finish_seconds\"", pos + 1)) {
    ++finishes;
  }
  EXPECT_EQ(finishes, qm.pipelines().size());
}

}  // namespace
}  // namespace pjoin
