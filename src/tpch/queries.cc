#include "tpch/queries.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "engine/plan.h"
#include "util/check.h"

namespace pjoin {

namespace {

// ---------------------------------------------------------------------------
// Step plumbing: multi-step queries accumulate stats and renumber the
// per-join strategy overrides (post-order across steps, Figure 12).
// ---------------------------------------------------------------------------

void AccumulateStats(QueryStats* total, const QueryStats& step,
                     bool first_step, int join_offset) {
  if (total == nullptr) return;
  total->seconds += step.seconds;
  total->source_tuples += step.source_tuples;
  total->result_rows = step.result_rows;  // final step's output
  for (int p = 0; p < static_cast<int>(JoinPhase::kNumPhases); ++p) {
    total->phase_timer.Add(static_cast<JoinPhase>(p),
                           step.phase_timer.seconds(static_cast<JoinPhase>(p)));
  }
  total->bytes.Merge(step.bytes);
  total->bloom_dropped += step.bloom_dropped;
  total->partition_bytes += step.partition_bytes;
  // Scalars accumulate; the observability snapshot keeps the final (main)
  // step's query-level sections, which carry the query's principal join
  // tree and any rewrite-pass record. Its pipelines, operators and joins
  // collect every step's, in step order, renumbered query-global (joins in
  // the post-order sequence).
  QueryMetrics earlier = std::move(total->metrics);
  total->metrics = step.metrics;
  if (!first_step) total->metrics.FollowStep(earlier, join_offset);
}

class StepRunner {
 public:
  StepRunner(const ExecOptions& base, QueryStats* stats, ThreadPool* pool)
      : base_(base), stats_(stats), pool_(pool) {}

  QueryResult Run(const PlanNode& plan) {
    ExecOptions options = base_;
    options.join_overrides.clear();
    const int num_joins = plan.CountJoins();
    for (const auto& [global_id, strategy] : base_.join_overrides) {
      if (global_id >= join_offset_ && global_id < join_offset_ + num_joins) {
        options.join_overrides[global_id - join_offset_] = strategy;
      }
    }
    // Per-join overrides are numbered post-order on the hand-written trees
    // (Figure 12). The rewrite pass may renumber joins by reordering, so a
    // caller supplying overrides pins the written plan shape.
    if (!base_.join_overrides.empty()) options.rewrite.enabled = 0;
    const int offset = join_offset_;
    join_offset_ += num_joins;
    QueryStats step;
    QueryResult result = ExecuteQuery(plan, options, &step, pool_);
    AccumulateStats(stats_, step, steps_run_++ == 0, offset);
    return result;
  }

 private:
  const ExecOptions& base_;
  QueryStats* stats_;
  ThreadPool* pool_;
  int join_offset_ = 0;
  int steps_run_ = 0;
};

// Materializes a query result into a temporary base table.
Table MaterializeResult(const QueryResult& result, const std::string& name,
                        std::vector<ColumnDef> columns) {
  PJOIN_CHECK(columns.size() <= result.column_names.size());
  Table table(name, Schema(columns));
  table.Reserve(result.rows.size());
  for (const auto& row : result.rows) {
    for (size_t c = 0; c < columns.size(); ++c) {
      switch (columns[c].type) {
        case DataType::kInt64:
          table.column(static_cast<int>(c))
              .AppendInt64(std::get<int64_t>(row[c]));
          break;
        case DataType::kInt32:
        case DataType::kDate:
          table.column(static_cast<int>(c))
              .AppendInt32(static_cast<int32_t>(std::get<int64_t>(row[c])));
          break;
        case DataType::kFloat64:
          table.column(static_cast<int>(c))
              .AppendFloat64(std::get<double>(row[c]));
          break;
        case DataType::kChar:
          table.column(static_cast<int>(c))
              .AppendString(std::get<std::string>(row[c]));
          break;
      }
    }
    table.FinishRow();
  }
  return table;
}

// A renamed copy of the nation table (for self-join-free plans when a query
// references nation under two roles, e.g. Q7/Q8).
Table RenamedNation(const Table& nation, const std::string& prefix) {
  Table copy(prefix, Schema({{prefix + "_nationkey", DataType::kInt64, 0},
                             {prefix + "_name", DataType::kChar, 25},
                             {prefix + "_regionkey", DataType::kInt64, 0}}));
  for (uint64_t r = 0; r < nation.num_rows(); ++r) {
    copy.column(0).AppendInt64(nation.column(0).GetInt64(r));
    copy.column(1).AppendString(nation.column(1).GetString(r));
    copy.column(2).AppendInt64(nation.column(2).GetInt64(r));
    copy.FinishRow();
  }
  return copy;
}

// ---------------------------------------------------------------------------
// Expression helpers.
// ---------------------------------------------------------------------------

bool CharFieldEquals(const RowLayout& layout, const std::byte* row, int f,
                     std::string_view want) {
  const char* s = layout.GetChar(row, f);
  const uint32_t width = layout.field(f).width;
  if (want.size() > width) return false;
  if (std::memcmp(s, want.data(), want.size()) != 0) return false;
  for (uint32_t i = static_cast<uint32_t>(want.size()); i < width; ++i) {
    if (s[i] != ' ') return false;
  }
  return true;
}

bool CharFieldPrefix(const RowLayout& layout, const std::byte* row, int f,
                     std::string_view prefix) {
  const char* s = layout.GetChar(row, f);
  return layout.field(f).width >= prefix.size() &&
         std::memcmp(s, prefix.data(), prefix.size()) == 0;
}

// revenue = price * (1 - discount)
MapDef RevenueMap(std::string name, std::string price, std::string discount) {
  MapDef def;
  def.name = std::move(name);
  def.type = DataType::kFloat64;
  def.inputs = {std::move(price), std::move(discount)};
  def.fn = [](const RowLayout& layout, const std::byte* row,
              const int* fields, std::byte* dst) {
    double v = layout.GetFloat64(row, fields[0]) *
               (1.0 - layout.GetFloat64(row, fields[1]));
    std::memcpy(dst, &v, 8);
  };
  return def;
}

// year(date_col) as int64
MapDef YearMap(std::string name, std::string date_col) {
  MapDef def;
  def.name = std::move(name);
  def.type = DataType::kInt64;
  def.inputs = {std::move(date_col)};
  def.fn = [](const RowLayout& layout, const std::byte* row,
              const int* fields, std::byte* dst) {
    int64_t y = DateYear(layout.GetInt32(row, fields[0]));
    std::memcpy(dst, &y, 8);
  };
  return def;
}

// flag (0/1 int64): trimmed CHAR column equals a literal
MapDef CharEqFlagMap(std::string name, std::string col, std::string literal) {
  MapDef def;
  def.name = std::move(name);
  def.type = DataType::kInt64;
  def.inputs = {std::move(col)};
  def.fn = [literal = std::move(literal)](const RowLayout& layout,
                                          const std::byte* row,
                                          const int* fields, std::byte* dst) {
    int64_t flag = CharFieldEquals(layout, row, fields[0], literal) ? 1 : 0;
    std::memcpy(dst, &flag, 8);
  };
  return def;
}

// masked revenue: revenue if flag else 0 (for share-style aggregates)
MapDef MaskedMap(std::string name, std::string value_col,
                 std::string flag_col) {
  MapDef def;
  def.name = std::move(name);
  def.type = DataType::kFloat64;
  def.inputs = {std::move(value_col), std::move(flag_col)};
  def.fn = [](const RowLayout& layout, const std::byte* row,
              const int* fields, std::byte* dst) {
    double v = layout.GetInt64(row, fields[1]) != 0
                   ? layout.GetFloat64(row, fields[0])
                   : 0.0;
    std::memcpy(dst, &v, 8);
  };
  return def;
}

using P = ScanPredicate;

// ---------------------------------------------------------------------------
// Query implementations. Plan shapes follow the Umbra plans the paper
// analyzes (Section 5.3.1); join counts per query sum to 59 across the
// workload, matching the paper.
// ---------------------------------------------------------------------------

// Q2: minimum-cost European supplier per BRASS part of a given size.
QueryResult RunQ2(const TpchDb& db, const ExecOptions& base, QueryStats* stats,
                  ThreadPool* pool) {
  StepRunner steps(base, stats, pool);

  // Step 1: European suppliers (2 joins), materialized with es_ names.
  auto eur = Aggregate(
      Join(Join(ScanTable(&db.region, {P::StrEq("r_name", "EUROPE")}),
                ScanTable(&db.nation), {{"r_regionkey", "n_regionkey"}}),
           ScanTable(&db.supplier), {{"n_nationkey", "s_nationkey"}}),
      {"s_suppkey", "s_name", "s_acctbal", "n_name"},
      {AggDef::CountStar("dummy")});
  Table eur_supp = MaterializeResult(
      steps.Run(*eur), "eur_supp",
      {{"es_suppkey", DataType::kInt64, 0},
       {"es_name", DataType::kChar, 25},
       {"es_acctbal", DataType::kFloat64, 0},
       {"es_nname", DataType::kChar, 25}});

  // Step 2: minimum supply cost per part among European suppliers (1 join).
  auto mincost = Aggregate(
      Join(ScanTable(&eur_supp), ScanTable(&db.partsupp),
           {{"es_suppkey", "ps_suppkey"}}),
      {"ps_partkey"}, {AggDef::Min("ps_supplycost", "min_cost")});
  Table mc = MaterializeResult(steps.Run(*mincost), "mincost",
                               {{"mc_partkey", DataType::kInt64, 0},
                                {"mc_cost", DataType::kFloat64, 0}});

  // Step 3: main query (3 joins): filtered parts at their minimum cost.
  auto main = Aggregate(
      Join(ScanTable(&eur_supp),
           Join(Join(ScanTable(&db.part, {P::EqI("p_size", 15),
                                          P::StrSuffix("p_type", "BRASS")}),
                     ScanTable(&mc), {{"p_partkey", "mc_partkey"}}),
                ScanTable(&db.partsupp),
                {{"p_partkey", "ps_partkey"}, {"mc_cost", "ps_supplycost"}}),
           {{"es_suppkey", "ps_suppkey"}}),
      {"p_partkey", "es_name", "es_nname"}, {AggDef::Max("es_acctbal", "bal")});
  return steps.Run(*main);
}

// Q3: unshipped orders of BUILDING customers.
QueryResult RunQ3(const TpchDb& db, const ExecOptions& base, QueryStats* stats,
                  ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  const int32_t date = MakeDate(1995, 3, 15);
  auto plan = Aggregate(
      MapColumns(
          Join(Join(ScanTable(&db.customer,
                              {P::StrEq("c_mktsegment", "BUILDING")}),
                    ScanTable(&db.orders, {P::LtI("o_orderdate", date)}),
                    {{"c_custkey", "o_custkey"}}),
               ScanTable(&db.lineitem, {P::GtI("l_shipdate", date)}),
               {{"o_orderkey", "l_orderkey"}}),
          {RevenueMap("revenue", "l_extendedprice", "l_discount")}),
      {"l_orderkey", "o_orderdate"}, {AggDef::Sum("revenue", "rev")});
  return steps.Run(*plan);
}

// Q4: order-priority checking (EXISTS lineitem with late commit).
QueryResult RunQ4(const TpchDb& db, const ExecOptions& base, QueryStats* stats,
                  ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  auto plan = Aggregate(
      Join(ScanTable(&db.orders,
                     {P::BetweenI("o_orderdate", MakeDate(1993, 7, 1),
                                  MakeDate(1993, 9, 30))}),
           ScanTable(&db.lineitem,
                     {P::ColLt("l_commitdate", "l_receiptdate")}),
           {{"o_orderkey", "l_orderkey"}}, JoinKind::kBuildSemi),
      {"o_orderpriority"}, {AggDef::CountStar("order_count")});
  return steps.Run(*plan);
}

// Q5: local supplier volume in ASIA (the 1:117 join of Section 5.3.2).
QueryResult RunQ5(const TpchDb& db, const ExecOptions& base, QueryStats* stats,
                  ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  auto rn = Join(ScanTable(&db.region, {P::StrEq("r_name", "ASIA")}),
                 ScanTable(&db.nation), {{"r_regionkey", "n_regionkey"}});
  auto c = Join(std::move(rn), ScanTable(&db.customer),
                {{"n_nationkey", "c_nationkey"}});
  auto o = Join(std::move(c),
                ScanTable(&db.orders,
                          {P::BetweenI("o_orderdate", MakeDate(1994, 1, 1),
                                       MakeDate(1994, 12, 31))}),
                {{"c_custkey", "o_custkey"}});
  auto l = Join(std::move(o), ScanTable(&db.lineitem),
                {{"o_orderkey", "l_orderkey"}});
  auto s = Join(std::move(l), ScanTable(&db.supplier),
                {{"l_suppkey", "s_suppkey"}, {"n_nationkey", "s_nationkey"}});
  auto plan = Aggregate(
      MapColumns(std::move(s),
                 {RevenueMap("revenue", "l_extendedprice", "l_discount")}),
      {"n_name"}, {AggDef::Sum("revenue", "rev")});
  return steps.Run(*plan);
}

// Q7: volume shipped between FRANCE and GERMANY.
QueryResult RunQ7(const TpchDb& db, const ExecOptions& base, QueryStats* stats,
                  ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  Table n1 = RenamedNation(db.nation, "n1");
  Table n2 = RenamedNation(db.nation, "n2");
  std::vector<std::string> pair = {"FRANCE", "GERMANY"};

  auto sn = Join(Join(ScanTable(&n1, {P::StrIn("n1_name", pair)}),
                      ScanTable(&db.supplier),
                      {{"n1_nationkey", "s_nationkey"}}),
                 ScanTable(&db.lineitem,
                           {P::BetweenI("l_shipdate", MakeDate(1995, 1, 1),
                                        MakeDate(1996, 12, 31))}),
                 {{"s_suppkey", "l_suppkey"}});
  auto on = Join(ScanTable(&db.orders), std::move(sn),
                 {{"o_orderkey", "l_orderkey"}});
  auto cn = Join(Join(ScanTable(&n2, {P::StrIn("n2_name", pair)}),
                      ScanTable(&db.customer),
                      {{"n2_nationkey", "c_nationkey"}}),
                 std::move(on), {{"c_custkey", "o_custkey"}});
  FilterDef different_nations;
  different_nations.inputs = {"n1_name", "n2_name"};
  different_nations.label = "n1 <> n2";
  different_nations.fn = [](const RowLayout& layout, const std::byte* row,
                            const int* fields) {
    return std::memcmp(layout.GetChar(row, fields[0]),
                       layout.GetChar(row, fields[1]), 25) != 0;
  };
  auto plan = Aggregate(
      MapColumns(Filter(std::move(cn), std::move(different_nations)),
                 {RevenueMap("volume", "l_extendedprice", "l_discount"),
                  YearMap("l_year", "l_shipdate")}),
      {"n1_name", "n2_name", "l_year"}, {AggDef::Sum("volume", "rev")});
  return steps.Run(*plan);
}

// Q8: national market share of BRAZIL in AMERICA.
QueryResult RunQ8(const TpchDb& db, const ExecOptions& base, QueryStats* stats,
                  ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  Table n2 = RenamedNation(db.nation, "n2");

  auto rn = Join(ScanTable(&db.region, {P::StrEq("r_name", "AMERICA")}),
                 ScanTable(&db.nation), {{"r_regionkey", "n_regionkey"}});
  auto c = Join(std::move(rn), ScanTable(&db.customer),
                {{"n_nationkey", "c_nationkey"}});
  auto o = Join(std::move(c),
                ScanTable(&db.orders,
                          {P::BetweenI("o_orderdate", MakeDate(1995, 1, 1),
                                       MakeDate(1996, 12, 31))}),
                {{"c_custkey", "o_custkey"}});
  auto pl =
      Join(ScanTable(&db.part,
                     {P::StrEq("p_type", "ECONOMY ANODIZED STEEL")}),
           ScanTable(&db.lineitem), {{"p_partkey", "l_partkey"}});
  auto ol = Join(std::move(o), std::move(pl), {{"o_orderkey", "l_orderkey"}});
  auto sl = Join(ScanTable(&db.supplier), std::move(ol),
                 {{"s_suppkey", "l_suppkey"}});
  auto nl = Join(ScanTable(&n2), std::move(sl),
                 {{"n2_nationkey", "s_nationkey"}});
  auto plan = Aggregate(
      MapColumns(MapColumns(std::move(nl),
                            {RevenueMap("volume", "l_extendedprice",
                                        "l_discount"),
                             YearMap("o_year", "o_orderdate"),
                             CharEqFlagMap("is_brazil", "n2_name", "BRAZIL")}),
                 {MaskedMap("brazil_volume", "volume", "is_brazil")}),
      {"o_year"},
      {AggDef::Sum("brazil_volume", "nation_volume"),
       AggDef::Sum("volume", "total_volume")});
  return steps.Run(*plan);
}

// Q9: product-type profit measure over 'green' parts.
QueryResult RunQ9(const TpchDb& db, const ExecOptions& base, QueryStats* stats,
                  ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  auto pl = Join(ScanTable(&db.part, {P::StrContains("p_name", "green")}),
                 ScanTable(&db.lineitem), {{"p_partkey", "l_partkey"}});
  auto spl = Join(ScanTable(&db.supplier), std::move(pl),
                  {{"s_suppkey", "l_suppkey"}});
  auto nspl = Join(ScanTable(&db.nation), std::move(spl),
                   {{"n_nationkey", "s_nationkey"}});
  auto pspl =
      Join(ScanTable(&db.partsupp), std::move(nspl),
           {{"ps_partkey", "l_partkey"}, {"ps_suppkey", "l_suppkey"}});
  auto opl = Join(ScanTable(&db.orders), std::move(pspl),
                  {{"o_orderkey", "l_orderkey"}});

  MapDef amount;
  amount.name = "amount";
  amount.type = DataType::kFloat64;
  amount.inputs = {"l_extendedprice", "l_discount", "ps_supplycost",
                   "l_quantity"};
  amount.fn = [](const RowLayout& layout, const std::byte* row,
                 const int* fields, std::byte* dst) {
    double v = layout.GetFloat64(row, fields[0]) *
                   (1.0 - layout.GetFloat64(row, fields[1])) -
               layout.GetFloat64(row, fields[2]) *
                   layout.GetFloat64(row, fields[3]);
    std::memcpy(dst, &v, 8);
  };
  auto plan = Aggregate(
      MapColumns(std::move(opl),
                 {std::move(amount), YearMap("o_year", "o_orderdate")}),
      {"n_name", "o_year"}, {AggDef::Sum("amount", "sum_profit")});
  return steps.Run(*plan);
}

// Q10: returned-item reporting.
QueryResult RunQ10(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  auto co = Join(ScanTable(&db.customer),
                 ScanTable(&db.orders,
                           {P::BetweenI("o_orderdate", MakeDate(1993, 10, 1),
                                        MakeDate(1993, 12, 31))}),
                 {{"c_custkey", "o_custkey"}});
  auto col = Join(std::move(co),
                  ScanTable(&db.lineitem, {P::StrEq("l_returnflag", "R")}),
                  {{"o_orderkey", "l_orderkey"}});
  auto ncol = Join(ScanTable(&db.nation), std::move(col),
                   {{"n_nationkey", "c_nationkey"}});
  auto plan = Aggregate(
      MapColumns(std::move(ncol),
                 {RevenueMap("revenue", "l_extendedprice", "l_discount")}),
      {"c_custkey", "c_name", "n_name"}, {AggDef::Sum("revenue", "rev")});
  return steps.Run(*plan);
}

// Q11: important stock identification in GERMANY.
QueryResult RunQ11(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  MapDef value;
  value.name = "value";
  value.type = DataType::kFloat64;
  value.inputs = {"ps_supplycost", "ps_availqty"};
  value.fn = [](const RowLayout& layout, const std::byte* row,
                const int* fields, std::byte* dst) {
    double v = layout.GetFloat64(row, fields[0]) *
               static_cast<double>(layout.GetInt64(row, fields[1]));
    std::memcpy(dst, &v, 8);
  };
  auto german_ps = [&](MapDef value_map) {
    return MapColumns(
        Join(Join(ScanTable(&db.nation, {P::StrEq("n_name", "GERMANY")}),
                  ScanTable(&db.supplier), {{"n_nationkey", "s_nationkey"}}),
             ScanTable(&db.partsupp), {{"s_suppkey", "ps_suppkey"}}),
        {std::move(value_map)});
  };

  // Step 1 (2 joins): total German stock value.
  auto total_plan =
      Aggregate(german_ps(value), {}, {AggDef::Sum("value", "total")});
  QueryResult total_result = steps.Run(*total_plan);
  double threshold = std::get<double>(total_result.rows[0][0]) * 0.0001 /
                     std::max(db.scale_factor, 0.01);

  // Step 2 (2 joins): per-part value.
  auto per_part = Aggregate(german_ps(value), {"ps_partkey"},
                            {AggDef::Sum("value", "part_value")});
  Table pv = MaterializeResult(steps.Run(*per_part), "part_value",
                               {{"pv_partkey", DataType::kInt64, 0},
                                {"pv_value", DataType::kFloat64, 0}});

  // Step 3: HAVING — parts above the threshold.
  auto having = Aggregate(ScanTable(&pv, {P::GtD("pv_value", threshold)}),
                          {"pv_partkey"}, {AggDef::Max("pv_value", "value")});
  return steps.Run(*having);
}

// Q12: shipping modes and order priority (lineitem is the build side).
QueryResult RunQ12(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  MapDef high;
  high.name = "high_line";
  high.type = DataType::kInt64;
  high.inputs = {"o_orderpriority"};
  high.fn = [](const RowLayout& layout, const std::byte* row,
               const int* fields, std::byte* dst) {
    int64_t flag = (CharFieldEquals(layout, row, fields[0], "1-URGENT") ||
                    CharFieldEquals(layout, row, fields[0], "2-HIGH"))
                       ? 1
                       : 0;
    std::memcpy(dst, &flag, 8);
  };
  MapDef low;
  low.name = "low_line";
  low.type = DataType::kInt64;
  low.inputs = {"high_line"};
  low.fn = [](const RowLayout& layout, const std::byte* row,
              const int* fields, std::byte* dst) {
    int64_t flag = 1 - layout.GetInt64(row, fields[0]);
    std::memcpy(dst, &flag, 8);
  };
  auto plan = Aggregate(
      MapColumns(
          MapColumns(
              Join(ScanTable(
                       &db.lineitem,
                       {P::StrIn("l_shipmode", {"MAIL", "SHIP"}),
                        P::ColLt("l_commitdate", "l_receiptdate"),
                        P::ColLt("l_shipdate", "l_commitdate"),
                        P::BetweenI("l_receiptdate", MakeDate(1994, 1, 1),
                                    MakeDate(1994, 12, 31))}),
                   ScanTable(&db.orders), {{"l_orderkey", "o_orderkey"}}),
              {std::move(high)}),
          {std::move(low)}),
      {"l_shipmode"},
      {AggDef::Sum("high_line", "high_count"),
       AggDef::Sum("low_line", "low_count")});
  return steps.Run(*plan);
}

// Q14: promotion effect.
QueryResult RunQ14(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  MapDef promo_flag;
  promo_flag.name = "is_promo";
  promo_flag.type = DataType::kInt64;
  promo_flag.inputs = {"p_type"};
  promo_flag.fn = [](const RowLayout& layout, const std::byte* row,
                     const int* fields, std::byte* dst) {
    int64_t flag = CharFieldPrefix(layout, row, fields[0], "PROMO") ? 1 : 0;
    std::memcpy(dst, &flag, 8);
  };
  auto plan = Aggregate(
      MapColumns(
          MapColumns(
              Join(ScanTable(&db.lineitem,
                             {P::BetweenI("l_shipdate", MakeDate(1995, 9, 1),
                                          MakeDate(1995, 9, 30))}),
                   ScanTable(&db.part), {{"l_partkey", "p_partkey"}}),
              {RevenueMap("revenue", "l_extendedprice", "l_discount"),
               std::move(promo_flag)}),
          {MaskedMap("promo_revenue", "revenue", "is_promo")}),
      {},
      {AggDef::Sum("promo_revenue", "promo"), AggDef::Sum("revenue", "total")});
  return steps.Run(*plan);
}

// Q15: top supplier by quarterly revenue.
QueryResult RunQ15(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  // Step 1: the revenue view.
  auto view = Aggregate(
      MapColumns(ScanTable(&db.lineitem,
                           {P::BetweenI("l_shipdate", MakeDate(1996, 1, 1),
                                        MakeDate(1996, 3, 31))}),
                 {RevenueMap("revenue", "l_extendedprice", "l_discount")}),
      {"l_suppkey"}, {AggDef::Sum("revenue", "total_revenue")});
  Table rev = MaterializeResult(steps.Run(*view), "revenue_view",
                                {{"rv_suppkey", DataType::kInt64, 0},
                                 {"rv_total", DataType::kFloat64, 0}});

  // Step 2: the maximum revenue.
  auto max_plan =
      Aggregate(ScanTable(&rev), {}, {AggDef::Max("rv_total", "max_rev")});
  double max_rev = std::get<double>(steps.Run(*max_plan).rows[0][0]);

  // Step 3 (1 join): the supplier(s) achieving it.
  auto main = Aggregate(
      Join(ScanTable(&rev, {P::BetweenD("rv_total", max_rev, max_rev)}),
           ScanTable(&db.supplier), {{"rv_suppkey", "s_suppkey"}}),
      {"s_suppkey", "s_name"}, {AggDef::Max("rv_total", "total_revenue")});
  return steps.Run(*main);
}

// Q16: parts/supplier relationship (anti join against complaint suppliers).
QueryResult RunQ16(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  auto pps = Join(
      ScanTable(&db.part,
                {P::StrNe("p_brand", "Brand#45"),
                 P::StrNotContains("p_type", "MEDIUM POLISHED"),
                 P::InI("p_size", {49, 14, 23, 45, 19, 3, 36, 9})}),
      ScanTable(&db.partsupp), {{"p_partkey", "ps_partkey"}});
  auto anti = Join(
      ScanTable(&db.supplier,
                {P::StrContains("s_comment", "Customer Complaints")}),
      std::move(pps), {{"s_suppkey", "ps_suppkey"}}, JoinKind::kProbeAnti);
  auto plan = Aggregate(std::move(anti), {"p_brand", "p_type", "p_size"},
                        {AggDef::Count("ps_suppkey", "supplier_cnt")});
  return steps.Run(*plan);
}

// Q17: small-quantity-order revenue (avg quantity per part subquery).
QueryResult RunQ17(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  auto avg_plan = Aggregate(ScanTable(&db.lineitem), {"l_partkey"},
                            {AggDef::Avg("l_quantity", "avg_qty")});
  Table aq = MaterializeResult(steps.Run(*avg_plan), "avg_qty",
                               {{"aq_partkey", DataType::kInt64, 0},
                                {"aq_avg", DataType::kFloat64, 0}});

  FilterDef below_avg;
  below_avg.inputs = {"l_quantity", "aq_avg"};
  below_avg.label = "l_quantity < 0.2 * avg";
  below_avg.fn = [](const RowLayout& layout, const std::byte* row,
                    const int* fields) {
    return layout.GetFloat64(row, fields[0]) <
           0.2 * layout.GetFloat64(row, fields[1]);
  };
  auto main = Aggregate(
      Filter(Join(ScanTable(&aq),
                  Join(ScanTable(&db.part, {P::StrEq("p_brand", "Brand#23"),
                                            P::StrEq("p_container", "MED BOX")}),
                       ScanTable(&db.lineitem), {{"p_partkey", "l_partkey"}}),
                  {{"aq_partkey", "l_partkey"}}),
             std::move(below_avg)),
      {}, {AggDef::Sum("l_extendedprice", "total_price")});
  return steps.Run(*main);
}

// Q18: large-volume customers.
QueryResult RunQ18(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  auto qty_plan = Aggregate(ScanTable(&db.lineitem), {"l_orderkey"},
                            {AggDef::Sum("l_quantity", "sum_qty")});
  Table big = MaterializeResult(steps.Run(*qty_plan), "order_qty",
                                {{"bo_orderkey", DataType::kInt64, 0},
                                 {"bo_qty", DataType::kFloat64, 0}});

  // Spec parameter is 300..315; with scaled-down data (max 7 lines x 50 qty
  // per order) 240 keeps Q18's extreme selectivity while yielding non-empty
  // results at fractional scale factors.
  auto bo = Join(ScanTable(&big, {P::GtD("bo_qty", 240.0)}),
                 ScanTable(&db.orders), {{"bo_orderkey", "o_orderkey"}});
  auto cbo = Join(ScanTable(&db.customer), std::move(bo),
                  {{"c_custkey", "o_custkey"}});
  auto lcbo = Join(std::move(cbo), ScanTable(&db.lineitem),
                   {{"o_orderkey", "l_orderkey"}});
  auto plan = Aggregate(std::move(lcbo),
                        {"c_name", "o_orderkey", "o_totalprice", "bo_qty"},
                        {AggDef::Sum("l_quantity", "qty")});
  return steps.Run(*plan);
}

// Q19: discounted revenue (disjunctive brand/container/quantity branches).
QueryResult RunQ19(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  FilterDef branches;
  branches.inputs = {"p_brand", "p_container", "p_size", "l_quantity"};
  branches.label = "Q19 OR-branches";
  branches.fn = [](const RowLayout& layout, const std::byte* row,
                   const int* fields) {
    const int64_t size = layout.GetInt64(row, fields[2]);
    const double qty = layout.GetFloat64(row, fields[3]);
    auto container_in = [&](std::initializer_list<std::string_view> set) {
      for (std::string_view c : set) {
        if (CharFieldEquals(layout, row, fields[1], c)) return true;
      }
      return false;
    };
    if (CharFieldEquals(layout, row, fields[0], "Brand#12") &&
        container_in({"SM CASE", "SM BOX", "SM PACK", "SM PKG"}) &&
        qty >= 1 && qty <= 11 && size >= 1 && size <= 5) {
      return true;
    }
    if (CharFieldEquals(layout, row, fields[0], "Brand#23") &&
        container_in({"MED BAG", "MED BOX", "MED PKG", "MED PACK"}) &&
        qty >= 10 && qty <= 20 && size >= 1 && size <= 10) {
      return true;
    }
    if (CharFieldEquals(layout, row, fields[0], "Brand#34") &&
        container_in({"LG CASE", "LG BOX", "LG PACK", "LG PKG"}) &&
        qty >= 20 && qty <= 30 && size >= 1 && size <= 15) {
      return true;
    }
    return false;
  };
  auto plan = Aggregate(
      MapColumns(
          Filter(Join(ScanTable(&db.part,
                                {P::InI("p_size", {1, 2, 3, 4, 5, 6, 7, 8, 9,
                                                   10, 11, 12, 13, 14, 15})}),
                      ScanTable(&db.lineitem,
                                {P::StrIn("l_shipmode", {"AIR", "REG AIR"}),
                                 P::StrEq("l_shipinstruct",
                                          "DELIVER IN PERSON")}),
                      {{"p_partkey", "l_partkey"}}),
                 std::move(branches)),
          {RevenueMap("revenue", "l_extendedprice", "l_discount")}),
      {}, {AggDef::Sum("revenue", "rev")});
  return steps.Run(*plan);
}

// Q20: potential part promotion (forest parts, CANADA suppliers).
QueryResult RunQ20(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  // Step 1: shipped quantity per (part, supplier) in 1994.
  auto sq_plan = Aggregate(
      ScanTable(&db.lineitem,
                {P::BetweenI("l_shipdate", MakeDate(1994, 1, 1),
                             MakeDate(1994, 12, 31))}),
      {"l_partkey", "l_suppkey"}, {AggDef::Sum("l_quantity", "qty")});
  Table sq = MaterializeResult(steps.Run(*sq_plan), "shipped_qty",
                               {{"sq_partkey", DataType::kInt64, 0},
                                {"sq_suppkey", DataType::kInt64, 0},
                                {"sq_qty", DataType::kFloat64, 0}});

  // Step 2 (4 joins): partsupp of forest parts with surplus stock, reduced
  // to suppliers, restricted to CANADA.
  auto forest_ps =
      Join(ScanTable(&db.part, {P::StrPrefix("p_name", "forest")}),
           ScanTable(&db.partsupp), {{"p_partkey", "ps_partkey"}},
           JoinKind::kProbeSemi);
  auto with_qty = Join(ScanTable(&sq), std::move(forest_ps),
                       {{"sq_partkey", "ps_partkey"},
                        {"sq_suppkey", "ps_suppkey"}});
  FilterDef surplus;
  surplus.inputs = {"ps_availqty", "sq_qty"};
  surplus.label = "availqty > 0.5 * shipped";
  surplus.fn = [](const RowLayout& layout, const std::byte* row,
                  const int* fields) {
    return static_cast<double>(layout.GetInt64(row, fields[0])) >
           0.5 * layout.GetFloat64(row, fields[1]);
  };
  auto suppliers = Join(Filter(std::move(with_qty), std::move(surplus)),
                        ScanTable(&db.supplier),
                        {{"ps_suppkey", "s_suppkey"}}, JoinKind::kProbeSemi);
  auto canada = Join(ScanTable(&db.nation, {P::StrEq("n_name", "CANADA")}),
                     std::move(suppliers), {{"n_nationkey", "s_nationkey"}});
  auto plan =
      Aggregate(std::move(canada), {"s_name"}, {AggDef::CountStar("cnt")});
  return steps.Run(*plan);
}

// Q21: suppliers who kept orders waiting (the left-deep tree of Figure 13).
QueryResult RunQ21(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  // Step 1: supplier span over all lineitems per order. "Another supplier
  // exists" <=> min != max or min != this supplier.
  auto all_span = Aggregate(ScanTable(&db.lineitem), {"l_orderkey"},
                            {AggDef::Min("l_suppkey", "mn"),
                             AggDef::Max("l_suppkey", "mx")});
  Table spans = MaterializeResult(steps.Run(*all_span), "supp_span",
                                  {{"as_orderkey", DataType::kInt64, 0},
                                   {"as_min", DataType::kFloat64, 0},
                                   {"as_max", DataType::kFloat64, 0}});

  // Step 2: supplier span over *late* lineitems per order.
  auto late_span = Aggregate(
      ScanTable(&db.lineitem, {P::ColLt("l_commitdate", "l_receiptdate")}),
      {"l_orderkey"},
      {AggDef::Min("l_suppkey", "mn"), AggDef::Max("l_suppkey", "mx"),
       AggDef::CountStar("cnt")});
  Table late = MaterializeResult(steps.Run(*late_span), "late_span",
                                 {{"ls_orderkey", DataType::kInt64, 0},
                                  {"ls_min", DataType::kFloat64, 0},
                                  {"ls_max", DataType::kFloat64, 0},
                                  {"ls_cnt", DataType::kInt64, 0}});

  // Step 3 (5 joins): the join tree of Figure 13.
  auto sn = Join(ScanTable(&db.nation, {P::StrEq("n_name", "SAUDI ARABIA")}),
                 ScanTable(&db.supplier), {{"n_nationkey", "s_nationkey"}});
  auto l1 = Join(std::move(sn),
                 ScanTable(&db.lineitem,
                           {P::ColLt("l_commitdate", "l_receiptdate")}),
                 {{"s_suppkey", "l_suppkey"}});
  auto o = Join(ScanTable(&db.orders, {P::StrEq("o_orderstatus", "F")}),
                std::move(l1), {{"o_orderkey", "l_orderkey"}});
  auto a = Join(ScanTable(&spans), std::move(o),
                {{"as_orderkey", "l_orderkey"}});
  FilterDef exists_other;
  exists_other.inputs = {"as_min", "as_max", "l_suppkey"};
  exists_other.label = "exists other supplier";
  exists_other.fn = [](const RowLayout& layout, const std::byte* row,
                       const int* fields) {
    double s = static_cast<double>(layout.GetInt64(row, fields[2]));
    return layout.GetFloat64(row, fields[0]) != s ||
           layout.GetFloat64(row, fields[1]) != s;
  };
  auto with_other = Filter(std::move(a), std::move(exists_other));
  auto l3 = Join(ScanTable(&late), std::move(with_other),
                 {{"ls_orderkey", "l_orderkey"}}, JoinKind::kLeftOuter);
  FilterDef no_other_late;
  no_other_late.inputs = {"ls_min", "ls_max", "ls_cnt", "l_suppkey"};
  no_other_late.label = "no other late supplier";
  no_other_late.fn = [](const RowLayout& layout, const std::byte* row,
                        const int* fields) {
    int64_t count = layout.GetInt64(row, fields[2]);
    if (count == 0) return true;  // no late lineitems at all (null padding)
    double s = static_cast<double>(layout.GetInt64(row, fields[3]));
    return layout.GetFloat64(row, fields[0]) == s &&
           layout.GetFloat64(row, fields[1]) == s;
  };
  auto plan = Aggregate(Filter(std::move(l3), std::move(no_other_late)),
                        {"s_name"}, {AggDef::CountStar("numwait")});
  return steps.Run(*plan);
}

// Q22: global sales opportunity (the 30%-faster BRJ join of Section 5.3.2).
QueryResult RunQ22(const TpchDb& db, const ExecOptions& base,
                   QueryStats* stats, ThreadPool* pool) {
  StepRunner steps(base, stats, pool);
  // Country codes 13,31,23,29,30,18,17 <=> nation keys (code - 10).
  std::vector<int64_t> nations = {3, 21, 13, 19, 20, 8, 7};

  // Step 1: average positive account balance of those customers.
  auto avg_plan = Aggregate(
      ScanTable(&db.customer,
                {P::InI("c_nationkey", nations), P::GtD("c_acctbal", 0.0)}),
      {}, {AggDef::Avg("c_acctbal", "avg_bal")});
  double avg_bal = std::get<double>(steps.Run(*avg_plan).rows[0][0]);

  // Step 2 (1 join): rich inactive customers — the anti join reads customer
  // as the build side and the unfiltered orders as the probe side.
  MapDef cntrycode;
  cntrycode.name = "cntrycode";
  cntrycode.type = DataType::kInt64;
  cntrycode.inputs = {"c_nationkey"};
  cntrycode.fn = [](const RowLayout& layout, const std::byte* row,
                    const int* fields, std::byte* dst) {
    int64_t code = 10 + layout.GetInt64(row, fields[0]);
    std::memcpy(dst, &code, 8);
  };
  auto plan = Aggregate(
      MapColumns(Join(ScanTable(&db.customer,
                                {P::InI("c_nationkey", nations),
                                 P::GtD("c_acctbal", avg_bal)}),
                      ScanTable(&db.orders), {{"c_custkey", "o_custkey"}},
                      JoinKind::kBuildAnti),
                 {std::move(cntrycode)}),
      {"cntrycode"},
      {AggDef::CountStar("numcust"), AggDef::Sum("c_acctbal", "totacctbal")});
  return steps.Run(*plan);
}

}  // namespace

const std::vector<TpchQuery>& TpchQueries() {
  static const std::vector<TpchQuery>* queries = new std::vector<TpchQuery>{
      {2, "Q2 minimum cost supplier", 6, RunQ2},
      {3, "Q3 shipping priority", 2, RunQ3},
      {4, "Q4 order priority checking", 1, RunQ4},
      {5, "Q5 local supplier volume", 5, RunQ5},
      {7, "Q7 volume shipping", 5, RunQ7},
      {8, "Q8 national market share", 7, RunQ8},
      {9, "Q9 product type profit", 5, RunQ9},
      {10, "Q10 returned items", 3, RunQ10},
      {11, "Q11 important stock", 4, RunQ11},
      {12, "Q12 shipping modes", 1, RunQ12},
      {14, "Q14 promotion effect", 1, RunQ14},
      {15, "Q15 top supplier", 1, RunQ15},
      {16, "Q16 parts/supplier relationship", 2, RunQ16},
      {17, "Q17 small quantity orders", 2, RunQ17},
      {18, "Q18 large volume customers", 3, RunQ18},
      {19, "Q19 discounted revenue", 1, RunQ19},
      {20, "Q20 potential promotion", 4, RunQ20},
      {21, "Q21 suppliers who kept orders waiting", 5, RunQ21},
      {22, "Q22 global sales opportunity", 1, RunQ22},
  };
  return *queries;
}

const TpchQuery& GetTpchQuery(int id) {
  for (const auto& q : TpchQueries()) {
    if (q.id == id) return q;
  }
  PJOIN_CHECK_MSG(false, "unknown TPC-H query id");
  return TpchQueries().front();
}

int TotalTpchJoins() {
  int total = 0;
  for (const auto& q : TpchQueries()) total += q.num_joins;
  return total;
}

}  // namespace pjoin
