// Tests for the algebraic rewrite pass (src/rewrite): per-rule units for
// predicate pushdown legality, the Bloom-pushdown cost gate, DPsize join
// reordering checked against exhaustive enumeration, golden EXPLAIN and
// metrics-JSON surfaces, and the rewrite-equivalence differential fuzz
// suite driving random multi-join plans against the interpreter oracle.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/explain.h"
#include "engine/plan.h"
#include "exec/thread_pool.h"
#include "rewrite/rewrite.h"
#include "stats/column_catalog.h"
#include "tests/test_util.h"
#include "util/env.h"
#include "util/rng.h"

namespace pjoin {
namespace {

// --- shared helpers ------------------------------------------------------

const PlanNode* FindNode(const PlanNode* n,
                         bool (*pred)(const PlanNode&, const std::string&),
                         const std::string& arg) {
  if (n == nullptr) return nullptr;
  if (pred(*n, arg)) return n;
  for (const PlanNode* c : {n->child.get(), n->build.get(), n->probe.get()}) {
    if (const PlanNode* hit = FindNode(c, pred, arg)) return hit;
  }
  return nullptr;
}

const PlanNode* FindFilter(const PlanNode* root, const std::string& label) {
  return FindNode(
      root,
      [](const PlanNode& n, const std::string& l) {
        return n.kind == PlanNode::Kind::kFilter && n.filter.label == l;
      },
      label);
}

const PlanNode* FindScan(const PlanNode* root, const std::string& table) {
  return FindNode(
      root,
      [](const PlanNode& n, const std::string& t) {
        return n.kind == PlanNode::Kind::kScan && n.table->name() == t;
      },
      table);
}

int CountBloomProbes(const PlanNode& n) {
  int count = static_cast<int>(n.bloom_probes.size());
  for (const PlanNode* c : {n.child.get(), n.build.get(), n.probe.get()}) {
    if (c != nullptr) count += CountBloomProbes(*c);
  }
  return count;
}

// keep rows where column % modulus != 0 (same shape the fuzz generator
// registers, reused here for hand-built plans).
FilterDef ModFilter(const std::string& column, int64_t m) {
  FilterDef def;
  def.label = column + "%" + std::to_string(m);
  def.inputs = {column};
  def.fn = [m](const RowLayout& l, const std::byte* row, const int* f) {
    return l.GetNumeric(row, f[0]) % m != 0;
  };
  return def;
}

// QueryResult rows (canonically sorted) as int64 rows; fails the calling
// test if any value is not an int64.
IntRows ResultRows(const QueryResult& r) {
  IntRows rows;
  for (const auto& vr : r.rows) {
    std::vector<int64_t> row;
    for (const auto& v : vr) {
      EXPECT_TRUE(std::holds_alternative<int64_t>(v));
      row.push_back(std::get<int64_t>(v));
    }
    rows.push_back(std::move(row));
  }
  return rows;
}

// --- fixtures ------------------------------------------------------------

// Chain fixture for pushdown/bloom units: dim(40 keys, half of mid's m_k
// domain) joins mid(400 rows) joins big(4000 rows). The outer join's probe
// key m_k lives one join below, so a planted Bloom filter is "distant".
class RewriteTest : public ::testing::Test {
 protected:
  RewriteTest()
      : dim_("rw_dim", Schema({{"d_k", DataType::kInt64, 0},
                               {"d_v", DataType::kInt64, 0}})),
        dim_full_("rw_dimf", Schema({{"df_k", DataType::kInt64, 0}})),
        mid_("rw_mid", Schema({{"m_k", DataType::kInt64, 0},
                               {"m_f", DataType::kInt64, 0},
                               {"m_v", DataType::kInt64, 0}})),
        big_("rw_big", Schema({{"b_f", DataType::kInt64, 0},
                               {"b_v", DataType::kInt64, 0}})) {
    for (int64_t k = 0; k < 40; ++k) {
      dim_.column(0).AppendInt64(k);
      dim_.column(1).AppendInt64(k % 7);
      dim_.FinishRow();
    }
    for (int64_t k = 0; k < 80; ++k) {
      dim_full_.column(0).AppendInt64(k);
      dim_full_.FinishRow();
    }
    Rng rng(11);
    for (int64_t i = 0; i < 400; ++i) {
      mid_.column(0).AppendInt64(static_cast<int64_t>(rng.Below(80)));
      mid_.column(1).AppendInt64(static_cast<int64_t>(rng.Below(200)));
      mid_.column(2).AppendInt64(static_cast<int64_t>(rng.Next() & 0xFF));
      mid_.FinishRow();
    }
    for (int64_t i = 0; i < 4000; ++i) {
      big_.column(0).AppendInt64(static_cast<int64_t>(rng.Below(200)));
      big_.column(1).AppendInt64(static_cast<int64_t>(rng.Next() & 0xFF));
      big_.FinishRow();
    }
  }

  ~RewriteTest() override { ColumnCatalog::Global().Invalidate(); }

  // Agg( outer(build=dim, probe=inner(build=mid, probe=big)) ).
  std::unique_ptr<PlanNode> ChainPlan(JoinKind outer = JoinKind::kInner,
                                      JoinKind inner = JoinKind::kInner) {
    auto lower = Join(ScanTable(&mid_), ScanTable(&big_), {{"m_f", "b_f"}},
                      inner, inner == JoinKind::kMark ? "imk" : "");
    auto upper = Join(ScanTable(&dim_), std::move(lower), {{"d_k", "m_k"}},
                      outer, outer == JoinKind::kMark ? "omk" : "");
    return Aggregate(std::move(upper), {},
                     {AggDef::CountStar("n"), AggDef::Sum("b_v", "s")});
  }

  static RewriteOptions BloomOnly() {
    RewriteOptions o;
    o.enabled = 1;
    o.predicate_pushdown = false;
    o.join_reorder = false;
    return o;
  }
  static RewriteOptions PushdownOnly() {
    RewriteOptions o;
    o.enabled = 1;
    o.join_reorder = false;
    o.bloom_pushdown = false;
    return o;
  }

  Table dim_;
  Table dim_full_;
  Table mid_;
  Table big_;
};

// --- predicate pushdown legality -----------------------------------------

TEST_F(RewriteTest, PushdownSinksFilterTwoJoinsDownToScan) {
  // A mid-column filter above both joins must sink through the outer probe
  // side and the inner build side, landing directly on the mid scan.
  auto plan = ChainPlan();
  auto filtered = Aggregate(
      Filter(std::move(plan->child), ModFilter("m_v", 2)), {},
      {AggDef::CountStar("n")});
  RewriteResult res = RewritePlan(*filtered, PushdownOnly());
  ASSERT_NE(res.plan, nullptr);
  EXPECT_TRUE(res.info.changed);
  EXPECT_EQ(res.info.filters_pushed, 1);
  EXPECT_EQ(res.info.RulesLine(), "pushdown");
  const PlanNode* f = FindFilter(res.plan.get(), "m_v%2");
  ASSERT_NE(f, nullptr);
  ASSERT_NE(f->child, nullptr);
  EXPECT_EQ(f->child->kind, PlanNode::Kind::kScan);
  EXPECT_EQ(f->child->table->name(), "rw_mid");
}

TEST_F(RewriteTest, PushdownKeepsFilterAboveLeftOuterPaddedSide) {
  // d_v sits on the null-padded build side of a left-outer join: pushing
  // the filter below would stop unmatched probe rows (which carry d_v = 0)
  // from being filtered, so the pass must decline entirely.
  auto join = Join(ScanTable(&dim_), ScanTable(&mid_), {{"d_k", "m_k"}},
                   JoinKind::kLeftOuter);
  auto plan = Aggregate(Filter(std::move(join), ModFilter("d_v", 3)), {},
                        {AggDef::CountStar("n")});
  RewriteResult res = RewritePlan(*plan, PushdownOnly());
  EXPECT_EQ(res.plan, nullptr);
  EXPECT_FALSE(res.info.changed);
  EXPECT_EQ(res.info.filters_pushed, 0);
}

TEST_F(RewriteTest, PushdownRightOuterLegalOnBuildIllegalOnProbe) {
  // kRightOuter preserves the build side (legal sink) and null-pads the
  // probe side (illegal sink); one plan with both filters shows the split.
  auto join = Join(ScanTable(&dim_), ScanTable(&mid_), {{"d_k", "m_k"}},
                   JoinKind::kRightOuter);
  auto plan = Aggregate(
      Filter(Filter(std::move(join), ModFilter("d_v", 3)),
             ModFilter("m_v", 2)),
      {}, {AggDef::CountStar("n")});
  RewriteResult res = RewritePlan(*plan, PushdownOnly());
  ASSERT_NE(res.plan, nullptr);
  EXPECT_EQ(res.info.filters_pushed, 1);
  const PlanNode* pushed = FindFilter(res.plan.get(), "d_v%3");
  ASSERT_NE(pushed, nullptr);
  EXPECT_EQ(pushed->child->kind, PlanNode::Kind::kScan);
  EXPECT_EQ(pushed->child->table->name(), "rw_dim");
  const PlanNode* kept = FindFilter(res.plan.get(), "m_v%2");
  ASSERT_NE(kept, nullptr);
  EXPECT_NE(kept->child->kind, PlanNode::Kind::kScan);
}

TEST_F(RewriteTest, PushdownSinksIntoProbeOfSemiAndAntiJoins) {
  for (JoinKind kind : {JoinKind::kProbeSemi, JoinKind::kProbeAnti}) {
    auto join =
        Join(ScanTable(&dim_), ScanTable(&mid_), {{"d_k", "m_k"}}, kind);
    auto plan = Aggregate(Filter(std::move(join), ModFilter("m_v", 2)), {},
                          {AggDef::CountStar("n")});
    RewriteResult res = RewritePlan(*plan, PushdownOnly());
    ASSERT_NE(res.plan, nullptr) << JoinKindName(kind);
    const PlanNode* f = FindFilter(res.plan.get(), "m_v%2");
    ASSERT_NE(f, nullptr);
    EXPECT_EQ(f->child->kind, PlanNode::Kind::kScan) << JoinKindName(kind);
  }
  // ...but the null-padded build side of those kinds must stay put.
  for (JoinKind kind : {JoinKind::kProbeSemi, JoinKind::kProbeAnti}) {
    auto join =
        Join(ScanTable(&dim_), ScanTable(&mid_), {{"d_k", "m_k"}}, kind);
    auto plan = Aggregate(Filter(std::move(join), ModFilter("d_v", 3)), {},
                          {AggDef::CountStar("n")});
    RewriteResult res = RewritePlan(*plan, PushdownOnly());
    EXPECT_EQ(res.plan, nullptr) << JoinKindName(kind);
  }
}

TEST_F(RewriteTest, MarkColumnFilterStaysAboveItsJoin) {
  // The mark column only exists above the mark join; no scan provides it.
  auto join = Join(ScanTable(&dim_), ScanTable(&mid_), {{"d_k", "m_k"}},
                   JoinKind::kMark, "has_dim");
  auto plan = Aggregate(Filter(std::move(join), ModFilter("has_dim", 2)), {},
                        {AggDef::CountStar("n")});
  RewriteResult res = RewritePlan(*plan, PushdownOnly());
  EXPECT_EQ(res.plan, nullptr);
  EXPECT_FALSE(res.info.changed);
}

// --- Bloom pushdown and its cost gate ------------------------------------

TEST_F(RewriteTest, BloomPlantedOnDistantProbeScan) {
  auto plan = ChainPlan();
  RewriteResult res = RewritePlan(*plan, BloomOnly());
  ASSERT_NE(res.plan, nullptr);
  EXPECT_EQ(res.info.blooms_planted, 1);
  EXPECT_EQ(res.info.RulesLine(), "bloom");
  const PlanNode* scan = FindScan(res.plan.get(), "rw_mid");
  ASSERT_NE(scan, nullptr);
  ASSERT_EQ(scan->bloom_probes.size(), 1u);
  EXPECT_EQ(scan->bloom_probes[0].probe_column, "m_k");
  EXPECT_EQ(scan->bloom_probes[0].build_column, "d_k");
  // Post-order ids: lower join = 0, upper (planting) join = 1.
  EXPECT_EQ(scan->bloom_probes[0].source_join, 1);
  const PlanNode* root_join = res.plan->child.get();
  ASSERT_EQ(root_join->kind, PlanNode::Kind::kJoin);
  ASSERT_EQ(root_join->bloom_builds.size(), 1u);
  EXPECT_EQ(root_join->bloom_builds[0].id, scan->bloom_probes[0].id);
}

TEST_F(RewriteTest, BloomSkipsImmediateProbeScan) {
  // A single join has no intermediate join to shield: the BRJ's own filter
  // already covers the immediate probe scan, so nothing is planted.
  auto join = Join(ScanTable(&dim_), ScanTable(&mid_), {{"d_k", "m_k"}});
  auto plan =
      Aggregate(std::move(join), {}, {AggDef::CountStar("n")});
  RewriteResult res = RewritePlan(*plan, BloomOnly());
  EXPECT_EQ(res.plan, nullptr);
  EXPECT_EQ(res.info.blooms_planted, 0);
}

TEST_F(RewriteTest, BloomGateRejectsLargeBuildSide) {
  RewriteOptions o = BloomOnly();
  o.bloom_max_build = 10;  // dim's 40 rows exceed the cap
  RewriteResult res = RewritePlan(*ChainPlan(), o);
  EXPECT_EQ(res.plan, nullptr);
  EXPECT_EQ(res.info.blooms_planted, 0);
}

TEST_F(RewriteTest, BloomGateRejectsUnselectiveBuild) {
  // dim_full covers mid's whole m_k domain: estimated pass rate 1.0 means
  // the filter would drop nothing and the gate declines.
  auto lower = Join(ScanTable(&mid_), ScanTable(&big_), {{"m_f", "b_f"}});
  auto upper =
      Join(ScanTable(&dim_full_), std::move(lower), {{"df_k", "m_k"}});
  auto plan =
      Aggregate(std::move(upper), {}, {AggDef::CountStar("n")});
  RewriteResult res = RewritePlan(*plan, BloomOnly());
  EXPECT_EQ(res.info.blooms_planted, 0);
}

TEST_F(RewriteTest, BloomIllegalAtProbePreservingJoinKinds) {
  // Kinds that keep (or mark) unmatched probe rows cannot drop probe tuples
  // early: kProbeAnti inverts the match, kLeftOuter pads it, kMark records
  // it. All three must decline the plant at the planting join.
  for (JoinKind kind :
       {JoinKind::kProbeAnti, JoinKind::kLeftOuter, JoinKind::kMark}) {
    RewriteResult res = RewritePlan(*ChainPlan(kind), BloomOnly());
    EXPECT_EQ(res.info.blooms_planted, 0) << JoinKindName(kind);
    if (res.plan != nullptr) {
      EXPECT_EQ(CountBloomProbes(*res.plan), 0) << JoinKindName(kind);
    }
  }
  // ...while probe-discarding kinds stay legal.
  for (JoinKind kind : {JoinKind::kProbeSemi, JoinKind::kRightOuter}) {
    RewriteResult res = RewritePlan(*ChainPlan(kind), BloomOnly());
    EXPECT_EQ(res.info.blooms_planted, 1) << JoinKindName(kind);
  }
}

TEST_F(RewriteTest, BloomIllegalThroughBuildPaddingIntermediateJoin) {
  // The target scan sits under the *build* side of the intermediate join.
  // A left-outer intermediate pads that side, so rows the Bloom filter
  // would drop still influence its output: no plant allowed.
  RewriteResult res =
      RewritePlan(*ChainPlan(JoinKind::kInner, JoinKind::kLeftOuter),
                  BloomOnly());
  EXPECT_EQ(res.info.blooms_planted, 0);
}

// --- join reordering: DPsize vs exhaustive enumeration -------------------

// Chain of up to five relations c0..c4 joined on ci_r = c(i+1)_l. The
// leading relations are the largest, so the index-order left-deep plan is
// deliberately expensive and the optimum joins the small tail first.
class RewriteDpTest : public ::testing::Test {
 protected:
  static constexpr int kRelations = 5;

  RewriteDpTest() {
    const int64_t rows[kRelations] = {900, 800, 30, 25, 40};
    const int64_t link_domain[kRelations - 1] = {8, 50, 12, 70};
    Rng rng(23);
    for (int i = 0; i < kRelations; ++i) {
      const std::string base = "rwc" + std::to_string(i);
      tables_.push_back(std::make_unique<Table>(
          base, Schema({{base + "_l", DataType::kInt64, 0},
                        {base + "_r", DataType::kInt64, 0}})));
      Table& t = *tables_.back();
      const int64_t dl = i > 0 ? link_domain[i - 1] : 4;
      const int64_t dr = i < kRelations - 1 ? link_domain[i] : 4;
      for (int64_t j = 0; j < rows[i]; ++j) {
        t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(dl)));
        t.column(1).AppendInt64(static_cast<int64_t>(rng.Below(dr)));
        t.FinishRow();
      }
    }
  }

  ~RewriteDpTest() override { ColumnCatalog::Global().Invalidate(); }

  std::string LinkR(int i) const { return "rwc" + std::to_string(i) + "_r"; }
  std::string LinkL(int i) const { return "rwc" + std::to_string(i) + "_l"; }

  std::unique_ptr<PlanNode> LeftDeep(int n) {
    auto tree = ScanTable(tables_[0].get());
    for (int i = 1; i < n; ++i) {
      tree = Join(std::move(tree), ScanTable(tables_[i].get()),
                  {{LinkR(i - 1), LinkL(i)}});
    }
    return Aggregate(std::move(tree), {}, {AggDef::CountStar("n")});
  }

  // Every bushy join tree over the chain segment [lo, hi]. A connected
  // split of a chain is a contiguous cut, so each split point yields
  // exactly one join edge and the key choice is unambiguous — the same
  // space the DP explores.
  std::vector<std::unique_ptr<PlanNode>> AllTrees(int lo, int hi) {
    std::vector<std::unique_ptr<PlanNode>> out;
    if (lo == hi) {
      out.push_back(ScanTable(tables_[lo].get()));
      return out;
    }
    for (int m = lo; m < hi; ++m) {
      auto lefts = AllTrees(lo, m);
      auto rights = AllTrees(m + 1, hi);
      for (const auto& l : lefts) {
        for (const auto& r : rights) {
          out.push_back(Join(l->Clone(), r->Clone(),
                             {{LinkR(m), LinkL(m + 1)}}));
        }
      }
    }
    return out;
  }

  uint64_t ExhaustiveBestCost(int n) {
    uint64_t best = ~0ull;
    for (const auto& tree : AllTrees(0, n - 1)) {
      best = std::min(best, EstimateJoinTreeCost(*tree));
    }
    return best;
  }

  static RewriteOptions ReorderOnly() {
    RewriteOptions o;
    o.enabled = 1;
    o.predicate_pushdown = false;
    o.bloom_pushdown = false;
    return o;
  }

  std::vector<std::unique_ptr<Table>> tables_;
};

TEST_F(RewriteDpTest, DpMatchesExhaustiveEnumeration) {
  int changed = 0;
  for (int n = 3; n <= kRelations; ++n) {
    auto plan = LeftDeep(n);
    RewriteResult res = RewritePlan(*plan, ReorderOnly());
    const PlanNode& final_plan = res.plan != nullptr ? *res.plan : *plan;
    EXPECT_EQ(EstimateJoinTreeCost(final_plan), ExhaustiveBestCost(n))
        << "n=" << n;
    if (res.plan != nullptr) {
      ++changed;
      EXPECT_EQ(res.info.dp_regions, 1) << "n=" << n;
      EXPECT_EQ(res.info.joins_reordered, n - 1) << "n=" << n;
      EXPECT_EQ(res.info.RulesLine(), "reorder_dp") << "n=" << n;
      EXPECT_FALSE(res.info.order.empty()) << "n=" << n;
    }
  }
  // The fixture is built so index order is suboptimal: at least one chain
  // length must actually reorder, or the test is vacuous.
  EXPECT_GE(changed, 1);
}

TEST_F(RewriteDpTest, GreedyFallbackAboveDpCap) {
  auto plan = LeftDeep(kRelations);
  RewriteOptions o = ReorderOnly();
  o.dp_cap = 2;  // 5 relations > cap: greedy left-deep fallback
  RewriteResult res = RewritePlan(*plan, o);
  ASSERT_NE(res.plan, nullptr);
  EXPECT_EQ(res.info.greedy_regions, 1);
  EXPECT_EQ(res.info.dp_regions, 0);
  EXPECT_EQ(res.info.RulesLine(), "reorder_greedy");
  // Greedy must still strictly improve on the deliberately bad order.
  EXPECT_LT(EstimateJoinTreeCost(*res.plan), EstimateJoinTreeCost(*plan));
}

TEST_F(RewriteDpTest, ReorderedChainExecutesIdentically) {
  auto plan = LeftDeep(kRelations);
  ExecOptions off;
  off.num_threads = 2;
  off.rewrite.enabled = 0;
  ExecOptions on = off;
  on.rewrite.enabled = 1;
  QueryResult r_off = ExecuteQuery(*plan, off);
  QueryResult r_on = ExecuteQuery(*plan, on);
  EXPECT_EQ(ResultRows(r_off), ResultRows(r_on));
}

// --- golden EXPLAIN / metrics JSON surfaces ------------------------------

TEST_F(RewriteTest, ExplainShowsRewriteLineAndBloomAnnotation) {
  auto plan = ChainPlan();
  ExecOptions options;
  options.rewrite.enabled = 1;
  options.rewrite.join_reorder = false;
  const std::string text = ExplainPlan(*plan, options);
  EXPECT_NE(text.find("rewrite: rules="), std::string::npos) << text;
  EXPECT_NE(text.find("bloom"), std::string::npos) << text;
  EXPECT_NE(text.find(", bloom(j"), std::string::npos) << text;
}

TEST_F(RewriteTest, ExplainRewriteOffHasNoRewriteArtifacts) {
  auto plan = ChainPlan();
  ExecOptions options;
  options.rewrite.enabled = 0;
  const std::string text = ExplainPlan(*plan, options);
  EXPECT_EQ(text.find("rewrite"), std::string::npos) << text;
  EXPECT_EQ(text.find("bloom("), std::string::npos) << text;
}

TEST_F(RewriteTest, MetricsJsonRewriteSectionRecordsChange) {
  auto plan = ChainPlan();
  ExecOptions on;
  on.num_threads = 2;
  on.rewrite.enabled = 1;
  // Keep the join order fixed so the Bloom plant is the (only) firing rule
  // and the JSON section's contents are fully pinned.
  on.rewrite.join_reorder = false;
  QueryStats stats_on;
  QueryResult r_on = ExecuteQuery(*plan, on, &stats_on);
  const std::string json = stats_on.metrics.ToJson();
  EXPECT_NE(json.find("\"rewrite\":{\"rules\":\"bloom\""), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"blooms_planted\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"bloom_dropped\":"), std::string::npos) << json;
  // Roughly half of mid's m_k values lie outside dim's key range, so the
  // planted filter must actually drop rows at the scan.
  EXPECT_GT(stats_on.metrics.rewrite.bloom_dropped, 0u);

  const std::string analyze = ExplainAnalyzePlan(*plan, on, stats_on);
  EXPECT_NE(analyze.find("rewrite: rules=bloom"), std::string::npos)
      << analyze;
  EXPECT_NE(analyze.find("bloom_dropped="), std::string::npos) << analyze;

  ExecOptions off = on;
  off.rewrite.enabled = 0;
  QueryStats stats_off;
  QueryResult r_off = ExecuteQuery(*plan, off, &stats_off);
  EXPECT_NE(stats_off.metrics.ToJson().find(
                "\"rewrite\":{\"rules\":\"\",\"order\":\"\""),
            std::string::npos);
  // And the planted filter never changes the answer.
  EXPECT_EQ(ResultRows(r_off), ResultRows(r_on));
}

TEST_F(RewriteTest, DisabledPassReturnsNullAndReportsDisabled) {
  RewriteOptions o;
  o.enabled = 0;
  RewriteResult res = RewritePlan(*ChainPlan(), o);
  EXPECT_EQ(res.plan, nullptr);
  EXPECT_FALSE(res.info.enabled);
  EXPECT_FALSE(res.info.changed);
  EXPECT_EQ(res.info.RulesLine(), "");
}

// --- rewrite-equivalence differential fuzz -------------------------------

// Hundreds of fixed-seed random plans (2-6 relations, mixed join kinds,
// correlated modulus filters, skewed key columns) executed with the rewrite
// pass off and on, both compared bit-identically against the interpreter
// oracle. PJOIN_REWRITE_FUZZ_ITERS raises the plan count for the CI smoke;
// PJOIN_MEMORY_BUDGET / PJOIN_EST_SCALE ctest legs re-run the same seeds
// under spill pressure and corrupted estimates.
TEST(RewriteFuzz, DifferentialAgainstOracle) {
  const char* iters_env = std::getenv("PJOIN_REWRITE_FUZZ_ITERS");
  const int iters =
      iters_env != nullptr ? std::max(1, std::atoi(iters_env)) : 200;
  RandomPlanGenerator gen(0xBADC0FFEull);
  ThreadPool pool(4);
  for (int i = 0; i < iters; ++i) {
    // Generated tables are short-lived; drop pointer-keyed stats entries so
    // address reuse can never serve stale statistics.
    ColumnCatalog::Global().Invalidate();
    GeneratedPlan g = gen.Next();
    OracleRel oracle = OracleEval(*g.plan, g);

    ExecOptions off;
    off.num_threads = 4;
    off.join_strategy = i % 3 == 0   ? JoinStrategy::kAuto
                        : i % 3 == 1 ? JoinStrategy::kBHJ
                                     : JoinStrategy::kRJ;
    off.rewrite.enabled = 0;
    ExecOptions on = off;
    on.rewrite.enabled = 1;

    QueryResult r_off = ExecuteQuery(*g.plan, off, nullptr, &pool);
    QueryResult r_on = ExecuteQuery(*g.plan, on, nullptr, &pool);

    const IntRows rows_off = ResultRows(r_off);
    const IntRows rows_on = ResultRows(r_on);
    ASSERT_EQ(rows_off, oracle.rows)
        << "rewrite-off diverged from the oracle at iteration " << i
        << "\n"
        << ExplainPlan(*g.plan, off);
    ASSERT_EQ(rows_on, oracle.rows)
        << "rewrite-on diverged from the oracle at iteration " << i << "\n"
        << ExplainPlan(*g.plan, on);
  }
  ColumnCatalog::Global().Invalidate();
}

}  // namespace
}  // namespace pjoin
