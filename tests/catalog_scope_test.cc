// The column catalog validates each table once per query
// (FingerprintScope). These tests pin that the memo never outlives a query:
// a table appended to between queries, a table address reused by a
// different table, and the temporary tables of a multi-step TPC-H query all
// get fresh statistics and encodings.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "engine/executor.h"
#include "engine/plan.h"
#include "engine/predicate.h"
#include "stats/column_catalog.h"
#include "storage/table.h"
#include "tpch/gen.h"
#include "tpch/queries.h"

namespace pjoin {
namespace {

constexpr int64_t kCut = 999;  // build-side predicate: b0 <= kCut

void AppendRows(Table* t, const std::vector<int64_t>& keys) {
  for (int64_t k : keys) {
    t->column(0).AppendInt64(k);
    t->column(1).AppendInt64(k * 7);
    t->FinishRow();
  }
}

Table BuildTable(const std::vector<int64_t>& keys) {
  Table t("cs_b", Schema({{"b0", DataType::kInt64, 0},
                          {"b1", DataType::kInt64, 0}}));
  AppendRows(&t, keys);
  return t;
}

Table ProbeTable() {
  Table t("cs_p", Schema({{"p0", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < 8000; ++i) {
    t.column(0).AppendInt64(i % 4000);
    t.FinishRow();
  }
  return t;
}

std::vector<int64_t> Keys(int64_t rows, int64_t modulus, int64_t offset) {
  std::vector<int64_t> keys;
  for (int64_t i = 0; i < rows; ++i) keys.push_back(offset + i % modulus);
  return keys;
}

// count(*) of build rows with b0 <= kCut joined to the probe table, and the
// advisor's build estimate, which the histogram of b0 answers.
struct JoinRun {
  int64_t count = 0;
  uint64_t est_build = 0;
};

JoinRun CountJoin(const Table& build, const Table& probe) {
  auto plan = Aggregate(
      Join(ScanTable(&build, {ScanPredicate::LeI("b0", kCut)}),
           ScanTable(&probe), {{"b0", "p0"}}),
      {}, {AggDef::CountStar("n")});
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.num_threads = 2;
  options.rewrite.enabled = 0;
  QueryStats stats;
  QueryResult result = ExecuteQuery(*plan, options, &stats);
  JoinRun run;
  run.count = std::get<int64_t>(result.rows.at(0).at(0));
  const JoinMetrics* jm = stats.metrics.FindJoin(0);
  if (jm != nullptr) run.est_build = jm->advisor.est_build_tuples;
  return run;
}

int64_t ExpectedCount(const Table& build, const Table& probe) {
  std::vector<int64_t> probe_hits(4000, 0);
  for (uint64_t r = 0; r < probe.num_rows(); ++r) {
    ++probe_hits[probe.column(0).GetInt64(r)];
  }
  int64_t n = 0;
  for (uint64_t r = 0; r < build.num_rows(); ++r) {
    const int64_t k = build.column(0).GetInt64(r);
    if (k <= kCut && k >= 0 && k < 4000) n += probe_hits[k];
  }
  return n;
}

void DropCatalogs() {
  ColumnCatalog::Global().Invalidate();
}

TEST(StatsCatalogScope, AppendBetweenQueriesRecollects) {
  DropCatalogs();
  Table probe = ProbeTable();
  Table build = BuildTable(Keys(4000, 4000, 0));  // 1000 rows pass
  const JoinRun first = CountJoin(build, probe);
  EXPECT_EQ(first.count, ExpectedCount(build, probe));
  EXPECT_NEAR(static_cast<double>(first.est_build), 1000.0, 250.0);

  AppendRows(&build, Keys(4000, 1000, 0));  // 4000 more rows pass
  const JoinRun second = CountJoin(build, probe);
  EXPECT_EQ(second.count, ExpectedCount(build, probe));
  EXPECT_NEAR(static_cast<double>(second.est_build), 5000.0, 1250.0);
  const TableStats* ts = ColumnCatalog::Global().Get(build);
  ASSERT_NE(ts, nullptr);
  EXPECT_DOUBLE_EQ(ts->columns[0].histogram.total_rows(), 8000.0);
  const EncodedTable* et = ColumnCatalog::Global().GetEncoded(build);
  ASSERT_NE(et, nullptr);
  EXPECT_EQ(et->rows, 8000u);
  DropCatalogs();
}

TEST(StatsCatalogScope, ReusedAddressSeesNewTable) {
  DropCatalogs();
  Table probe = ProbeTable();
  // Same row count and schema at the same address: only the content
  // fingerprint tells the two tables apart.
  std::optional<Table> slot;
  slot.emplace(BuildTable(Keys(4000, 4000, 0)));  // 1000 rows pass
  const Table* address = &*slot;
  const JoinRun first = CountJoin(*slot, probe);
  EXPECT_EQ(first.count, ExpectedCount(*slot, probe));
  EXPECT_NEAR(static_cast<double>(first.est_build), 1000.0, 250.0);

  slot.reset();
  slot.emplace(BuildTable(Keys(4000, 500, 500)));  // every row passes
  ASSERT_EQ(&*slot, address);
  const JoinRun second = CountJoin(*slot, probe);
  EXPECT_EQ(second.count, ExpectedCount(*slot, probe));
  EXPECT_NEAR(static_cast<double>(second.est_build), 4000.0, 1000.0);
  const TableStats* ts = ColumnCatalog::Global().Get(*slot);
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->columns[0].histogram.min(), 500.0);
  DropCatalogs();
}

// Q18 materializes its first step into a stack table that the second step
// scans. Run on two databases in a row, the second run's temporary table
// can sit where the first one's was; its statistics must still be its own.
TEST(StatsCatalogScope, TpchStepTablesGetTheirOwnStats) {
  auto db_a = GenerateTpch(0.01, /*seed=*/19);
  auto db_b = GenerateTpch(0.01, /*seed=*/23);
  const TpchQuery& q18 = GetTpchQuery(18);
  ExecOptions options;
  options.join_strategy = JoinStrategy::kAuto;
  options.num_threads = 2;
  auto estimates = [&](const TpchDb& db, QueryStats* stats) {
    q18.run(db, options, stats, nullptr);
    std::vector<uint64_t> est;
    for (const JoinMetrics& j : stats->metrics.joins()) {
      est.push_back(j.advisor.est_build_tuples);
    }
    return est;
  };

  DropCatalogs();
  QueryStats fresh;
  const std::vector<uint64_t> expected = estimates(*db_b, &fresh);
  ASSERT_EQ(static_cast<int>(expected.size()), q18.num_joins);
  // The final step scans customer, orders, lineitem and the step table.
  EXPECT_EQ(fresh.metrics.stats.tables, 4u);

  DropCatalogs();
  QueryStats first, second;
  estimates(*db_a, &first);
  EXPECT_EQ(estimates(*db_b, &second), expected);
  EXPECT_EQ(second.metrics.stats.tables, 4u);
  DropCatalogs();
}

}  // namespace
}  // namespace pjoin
