// Tests for the plan explainer.
#include <gtest/gtest.h>

#include "engine/explain.h"
#include "engine/plan.h"

namespace pjoin {
namespace {

TEST(Explain, RendersTreeWithJoinIdsAndStrategies) {
  Table a("ta", Schema({{"a_k", DataType::kInt64, 0}}));
  Table b("tb", Schema({{"b_k", DataType::kInt64, 0}}));
  Table c("tc", Schema({{"c_k", DataType::kInt64, 0}}));
  a.column(0).AppendInt64(1);
  a.FinishRow();
  b.column(0).AppendInt64(1);
  b.FinishRow();
  c.column(0).AppendInt64(1);
  c.FinishRow();

  auto inner = Join(ScanTable(&a, {ScanPredicate::GtI("a_k", 0)}),
                    ScanTable(&b), {{"a_k", "b_k"}});
  auto outer = Join(std::move(inner), ScanTable(&c), {{"a_k", "c_k"}},
                    JoinKind::kProbeSemi);
  auto plan = Aggregate(std::move(outer), {}, {AggDef::CountStar("n")});

  ExecOptions options;
  options.join_strategy = JoinStrategy::kBHJ;
  options.join_overrides[1] = JoinStrategy::kBRJ;
  std::string text = ExplainPlan(*plan, options);

  EXPECT_NE(text.find("aggregate"), std::string::npos);
  // Post-order: the inner join is #0 (default BHJ), the semi join is #1
  // (overridden to BRJ).
  EXPECT_NE(text.find("join #0 [inner, BHJ]"), std::string::npos);
  EXPECT_NE(text.find("join #1 [probe-semi, BRJ]"), std::string::npos);
  EXPECT_NE(text.find("scan ta [1 rows, a_k >]"), std::string::npos);
  EXPECT_NE(text.find("scan tc"), std::string::npos);
}

TEST(Explain, AutoStrategyShowsAdvisorDecision) {
  // kAuto joins render as "auto:<pick>" plus an advisor sub-line with the
  // cost breakdown. Cache sizes are pinned so the output is
  // machine-independent, and two renders must be byte-identical (the costs
  // are deterministic functions of the plan).
  Table dim("xd", Schema({{"xd_k", DataType::kInt64, 0}}));
  Table fact("xf", Schema({{"xf_k", DataType::kInt64, 0}}));
  for (int64_t k = 0; k < 100; ++k) {
    dim.column(0).AppendInt64(k);
    dim.FinishRow();
  }
  for (int64_t i = 0; i < 5000; ++i) {
    fact.column(0).AppendInt64(i % 200);
    fact.FinishRow();
  }
  auto plan =
      Aggregate(Join(ScanTable(&dim), ScanTable(&fact), {{"xd_k", "xf_k"}}),
                {}, {AggDef::CountStar("n")});

  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.advisor.l2_bytes = 1 << 20;
  options.advisor.profile = &CostProfile::Reference();
  const std::string text = ExplainPlan(*plan, options);
  EXPECT_EQ(text, ExplainPlan(*plan, options));

  // A 100-row build fits any L2: the advisor picks BHJ and says why.
  EXPECT_NE(text.find("join #0 [inner, auto:BHJ]"), std::string::npos);
  EXPECT_NE(text.find("advisor: est_build=100 est_probe=5000"),
            std::string::npos);
  EXPECT_NE(text.find("-- build fits L2"), std::string::npos);
  // The L2 rule settles it without costs.
  EXPECT_EQ(text.find("cost_ns["), std::string::npos);

  // Past a tiny modeled L2 the decision is costed, in ns of the profile.
  ExecOptions costed = options;
  costed.advisor.l2_bytes = 64;
  const std::string priced = ExplainPlan(*plan, costed);
  EXPECT_NE(priced.find(" pass="), std::string::npos);
  EXPECT_NE(priced.find(" cost_ns[bhj="), std::string::npos);

  // Manual strategies render without the advisor line.
  ExecOptions manual;
  manual.join_strategy = JoinStrategy::kBHJ;
  const std::string plain = ExplainPlan(*plan, manual);
  EXPECT_EQ(plain.find("advisor:"), std::string::npos);
  EXPECT_NE(plain.find("join #0 [inner, BHJ]"), std::string::npos);
}

TEST(Explain, RendersFilterAndMapLabels) {
  Table t("tt", Schema({{"x", DataType::kInt64, 0}}));
  t.column(0).AppendInt64(1);
  t.FinishRow();
  FilterDef filter;
  filter.label = "x is even";
  filter.inputs = {"x"};
  filter.fn = [](const RowLayout& l, const std::byte* r, const int* f) {
    return l.GetInt64(r, f[0]) % 2 == 0;
  };
  MapDef map;
  map.name = "x2";
  map.type = DataType::kInt64;
  map.inputs = {"x"};
  map.fn = [](const RowLayout& l, const std::byte* r, const int* f,
              std::byte* dst) {
    int64_t v = l.GetInt64(r, f[0]) * 2;
    std::memcpy(dst, &v, 8);
  };
  auto plan =
      Aggregate(MapColumns(Filter(ScanTable(&t), std::move(filter)),
                           {std::move(map)}),
                {}, {AggDef::Sum("x2", "s")});
  std::string text = ExplainPlan(*plan, ExecOptions{});
  EXPECT_NE(text.find("filter [x is even]"), std::string::npos);
  EXPECT_NE(text.find("map [x2]"), std::string::npos);
}

}  // namespace
}  // namespace pjoin
