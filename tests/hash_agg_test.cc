// Tests for hash aggregation: all aggregate functions, group-key types,
// merging across workers, empty-input semantics, and a differential sweep
// against a row-at-a-time std::map oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <map>

#include "engine/executor.h"
#include "engine/plan.h"
#include "exec/morsel.h"
#include "util/hash.h"
#include "util/rng.h"

namespace pjoin {
namespace {

Table MakeTable() {
  Table t("t", Schema({{"g", DataType::kInt64, 0},
                       {"v", DataType::kInt64, 0},
                       {"f", DataType::kFloat64, 0},
                       {"s", DataType::kChar, 4},
                       {"d", DataType::kDate, 0}}));
  auto add = [&](int64_t g, int64_t v, double f, const std::string& s,
                 int32_t d) {
    t.column(0).AppendInt64(g);
    t.column(1).AppendInt64(v);
    t.column(2).AppendFloat64(f);
    t.column(3).AppendString(s);
    t.column(4).AppendInt32(d);
    t.FinishRow();
  };
  add(1, 10, 1.5, "aa", MakeDate(1995, 1, 1));
  add(1, 20, 2.5, "aa", MakeDate(1995, 1, 2));
  add(2, -5, 0.5, "bb", MakeDate(1996, 1, 1));
  add(2, 15, -0.5, "bb", MakeDate(1996, 1, 2));
  add(2, 0, 10.0, "cc", MakeDate(1997, 1, 1));
  return t;
}

TEST(HashAgg, AllAggregateOps) {
  Table t = MakeTable();
  auto plan = Aggregate(ScanTable(&t), {"g"},
                        {AggDef::Sum("v", "sv"), AggDef::Sum("f", "sf"),
                         AggDef::Count("v", "cnt"), AggDef::Min("v", "mn"),
                         AggDef::Max("v", "mx"), AggDef::Avg("f", "avg"),
                         AggDef::CountStar("star")});
  QueryResult r = ExecuteQuery(*plan, ExecOptions{});
  ASSERT_EQ(r.num_rows(), 2u);
  // Group g=1 (sorted first).
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 1);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), 30);       // sum v
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][2]), 4.0);  // sum f
  EXPECT_EQ(std::get<int64_t>(r.rows[0][3]), 2);        // count
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][4]), 10.0);  // min
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][5]), 20.0);  // max
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[0][6]), 2.0);   // avg f
  EXPECT_EQ(std::get<int64_t>(r.rows[0][7]), 2);        // count(*)
  // Group g=2.
  EXPECT_EQ(std::get<int64_t>(r.rows[1][1]), 10);
  EXPECT_DOUBLE_EQ(std::get<double>(r.rows[1][4]), -5.0);
}

TEST(HashAgg, CharAndDateGroupKeys) {
  Table t = MakeTable();
  auto by_str = Aggregate(ScanTable(&t), {"s"}, {AggDef::CountStar("n")});
  QueryResult r1 = ExecuteQuery(*by_str, ExecOptions{});
  ASSERT_EQ(r1.num_rows(), 3u);
  EXPECT_EQ(std::get<std::string>(r1.rows[0][0]), "aa");  // trimmed

  auto by_date = Aggregate(ScanTable(&t), {"d"}, {AggDef::CountStar("n")});
  QueryResult r2 = ExecuteQuery(*by_date, ExecOptions{});
  EXPECT_EQ(r2.num_rows(), 5u);  // all dates distinct
}

TEST(HashAgg, CompositeGroupKeys) {
  Table t = MakeTable();
  auto plan =
      Aggregate(ScanTable(&t), {"g", "s"}, {AggDef::CountStar("n")});
  QueryResult r = ExecuteQuery(*plan, ExecOptions{});
  EXPECT_EQ(r.num_rows(), 3u);  // (1,aa), (2,bb), (2,cc)

  // No aggregates at all: a DISTINCT over the keys.
  auto distinct = Aggregate(ScanTable(&t), {"g", "s"}, {});
  QueryResult d = ExecuteQuery(*distinct, ExecOptions{});
  ASSERT_EQ(d.num_rows(), 3u);
  EXPECT_EQ(std::get<std::string>(d.rows[2][1]), "cc");
}

TEST(HashAgg, ScalarAggregateOnEmptyInput) {
  Table t = MakeTable();
  auto plan = Aggregate(ScanTable(&t, {ScanPredicate::GtI("v", 1000)}), {},
                        {AggDef::CountStar("n"), AggDef::Sum("v", "sv")});
  QueryResult r = ExecuteQuery(*plan, ExecOptions{});
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][0]), 0);
  EXPECT_EQ(std::get<int64_t>(r.rows[0][1]), 0);
}

TEST(HashAgg, GroupedAggregateOnEmptyInputYieldsNoRows) {
  Table t = MakeTable();
  auto plan = Aggregate(ScanTable(&t, {ScanPredicate::GtI("v", 1000)}), {"g"},
                        {AggDef::CountStar("n")});
  QueryResult r = ExecuteQuery(*plan, ExecOptions{});
  EXPECT_EQ(r.num_rows(), 0u);
}

TEST(HashAgg, ParallelMergeMatchesSingleThread) {
  // Large random input aggregated with 1 and 4 workers must agree exactly
  // for integer aggregates.
  Table t("big", Schema({{"g", DataType::kInt64, 0},
                         {"v", DataType::kInt64, 0}}));
  Rng rng(3);
  for (int i = 0; i < 300000; ++i) {
    t.column(0).AppendInt64(static_cast<int64_t>(rng.Below(100)));
    t.column(1).AppendInt64(static_cast<int64_t>(rng.Below(1000)));
    t.FinishRow();
  }
  auto make_plan = [&] {
    return Aggregate(ScanTable(&t), {"g"},
                     {AggDef::Sum("v", "sv"), AggDef::CountStar("n"),
                      AggDef::Min("v", "mn"), AggDef::Max("v", "mx")});
  };
  ExecOptions one;
  one.num_threads = 1;
  ExecOptions four;
  four.num_threads = 4;
  QueryResult r1 = ExecuteQuery(*make_plan(), one);
  QueryResult r4 = ExecuteQuery(*make_plan(), four);
  EXPECT_EQ(r1.num_rows(), 100u);
  EXPECT_TRUE(r1.ApproxEquals(r4, 0.0));  // exact: integer aggregates
}

TEST(HashAgg, SignedZeroKeysStayDistinctAndSortByRow) {
  // +0.0 and -0.0 are distinct group keys (distinct bytes) that compare
  // equal, so their order falls back to the rest of the boxed row — the
  // order std::sort over vector<Value> gives.
  Table t("z", Schema({{"f", DataType::kFloat64, 0},
                       {"v", DataType::kInt64, 0}}));
  auto add = [&](double f, int64_t v) {
    t.column(0).AppendFloat64(f);
    t.column(1).AppendInt64(v);
    t.FinishRow();
  };
  add(0.0, 5);
  add(-0.0, 3);
  add(-1.0, 9);
  auto plan = Aggregate(ScanTable(&t), {"f"}, {AggDef::Sum("v", "sv")});
  QueryResult r = ExecuteQuery(*plan, ExecOptions{});
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(std::get<double>(r.rows[0][0]), -1.0);
  EXPECT_EQ(std::get<int64_t>(r.rows[1][1]), 3);
  EXPECT_TRUE(std::signbit(std::get<double>(r.rows[1][0])));
  EXPECT_EQ(std::get<int64_t>(r.rows[2][1]), 5);
  EXPECT_FALSE(std::signbit(std::get<double>(r.rows[2][0])));
}

TEST(HashAgg, MinMaxStartFromFirstRowSoNaNKeepsItsOrderSemantics) {
  // min/max start from the group's first value and then take `v < min` /
  // `v > max`: a leading NaN sticks, a later NaN is skipped.
  Table t("n", Schema({{"g", DataType::kInt64, 0},
                       {"f", DataType::kFloat64, 0}}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<int64_t, double> rows[] = {
      {1, nan}, {1, 1.0}, {2, 1.0}, {2, nan}, {2, 0.5}, {2, 2.0}};
  for (const auto& [g, f] : rows) {
    t.column(0).AppendInt64(g);
    t.column(1).AppendFloat64(f);
    t.FinishRow();
  }
  auto plan = Aggregate(ScanTable(&t), {"g"},
                        {AggDef::Min("f", "mn"), AggDef::Max("f", "mx")});
  ExecOptions one;
  one.num_threads = 1;
  QueryResult r = ExecuteQuery(*plan, one);
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_TRUE(std::isnan(std::get<double>(r.rows[0][1])));
  EXPECT_TRUE(std::isnan(std::get<double>(r.rows[0][2])));
  EXPECT_EQ(std::get<double>(r.rows[1][1]), 0.5);
  EXPECT_EQ(std::get<double>(r.rows[1][2]), 2.0);
}

// ---------------------------------------------------------------------------
// Differential sweep: every key type, composite keys up to 40 bytes, every
// aggregate op, group counts around the table-growth points, 1 and 4
// workers, against a row-at-a-time std::map oracle.
// ---------------------------------------------------------------------------

struct AggRow {
  int64_t k64;
  int32_t k32;
  int32_t kd;
  double kf;
  std::string ks;  // CHAR(5), appended with trailing spaces for odd groups
  std::string kc;  // CHAR(24), shared by three consecutive groups
  int64_t vi;      // mixed sign
  int32_t vn;      // all negative
  double vf;       // mixed sign, multiples of 0.25: sums stay exact
  double vg;       // all negative, multiples of 0.25
};

constexpr int64_t kViRange = 1000000;

// Bijective base-10 over an alphabet that holds bytes below and above the
// space pad, so padded-byte order and std::string order disagree.
std::string GroupString(uint64_t g) {
  static const char kAlphabet[] = "\x01!09AZaz~\xe9";
  std::string s;
  uint64_t n = g + 1;
  while (n > 0) {
    --n;
    s.insert(s.begin(), kAlphabet[n % 10]);
    n /= 10;
  }
  return s;
}

AggRow MakeAggRow(uint64_t g, uint64_t groups, Rng& rng) {
  const int64_t centered = static_cast<int64_t>(g) -
                           static_cast<int64_t>(groups / 2);
  AggRow r;
  r.k64 = centered * 1000003 - 7;
  r.k32 = static_cast<int32_t>(static_cast<int64_t>(g) * 37 - 500000);
  r.kd = MakeDate(1992, 1, 1) + static_cast<int32_t>(g) - 50000;
  r.kf = static_cast<double>(centered) * 0.5;
  r.ks = GroupString(g);
  if (g % 2 == 1 && r.ks.size() < 5) r.ks += ' ';
  r.kc = "grp-" + std::to_string(g / 3);
  r.vi = rng.Range(-kViRange, kViRange);
  r.vn = static_cast<int32_t>(rng.Range(-kViRange, -1));
  r.vf = static_cast<double>(rng.Range(-4 * kViRange, 4 * kViRange)) * 0.25;
  r.vg = static_cast<double>(rng.Range(-4 * kViRange, -1)) * 0.25;
  return r;
}

// Column accessors by name, resolved once per query rather than per row.
std::function<Value(const AggRow&)> OracleKey(const std::string& col) {
  auto trim = [](std::string s) {
    while (!s.empty() && s.back() == ' ') s.pop_back();
    return s;
  };
  if (col == "k64") return [](const AggRow& r) { return Value(r.k64); };
  if (col == "k32") {
    return [](const AggRow& r) { return Value(int64_t{r.k32}); };
  }
  if (col == "kd") return [](const AggRow& r) { return Value(int64_t{r.kd}); };
  if (col == "kf") return [](const AggRow& r) { return Value(r.kf); };
  if (col == "ks") return [=](const AggRow& r) { return Value(trim(r.ks)); };
  PJOIN_CHECK(col == "kc");
  return [=](const AggRow& r) { return Value(trim(r.kc)); };
}

std::function<double(const AggRow&)> OracleInput(const std::string& col) {
  if (col == "vi") return [](const AggRow& r) { return double(r.vi); };
  if (col == "vn") return [](const AggRow& r) { return double(r.vn); };
  if (col == "vf") return [](const AggRow& r) { return r.vf; };
  PJOIN_CHECK(col == "vg");
  return [](const AggRow& r) { return r.vg; };
}

std::vector<AggDef> DifferentialAggs() {
  return {AggDef::Sum("vi", "sum_i"),   AggDef::Sum("vf", "sum_f"),
          AggDef::Count("vi", "cnt"),   AggDef::CountStar("star"),
          AggDef::Min("vi", "min_i"),   AggDef::Max("vi", "max_i"),
          AggDef::Min("vn", "min_n"),   AggDef::Max("vn", "max_n"),
          AggDef::Min("vf", "min_f"),   AggDef::Max("vf", "max_f"),
          AggDef::Min("vg", "min_g"),   AggDef::Max("vg", "max_g"),
          AggDef::Avg("vi", "avg_i"),   AggDef::Avg("vf", "avg_f")};
}

// Row-at-a-time reference: one std::map entry per key, straightforward
// accumulators, then the boxed rows sorted with std::sort.
QueryResult OracleAggregate(const std::vector<AggRow>& rows, int64_t min_vi,
                            const std::vector<std::string>& group_by,
                            const std::vector<AggDef>& aggs) {
  struct Acc {
    int64_t count = 0;
    int64_t isum = 0;
    double fsum = 0;
    double min = 0;
    double max = 0;
  };
  std::vector<std::function<Value(const AggRow&)>> keys;
  for (const auto& col : group_by) keys.push_back(OracleKey(col));
  std::vector<std::function<double(const AggRow&)>> inputs;
  for (const auto& agg : aggs) {
    inputs.push_back(agg.op == AggDef::Op::kCountStar ? nullptr
                                                      : OracleInput(agg.input));
  }
  std::map<std::vector<Value>, std::vector<Acc>> groups;
  for (const AggRow& r : rows) {
    if (r.vi <= min_vi) continue;
    std::vector<Value> key;
    for (const auto& k : keys) key.push_back(k(r));
    auto [it, inserted] = groups.try_emplace(std::move(key));
    if (inserted) it->second.resize(aggs.size());
    for (size_t a = 0; a < aggs.size(); ++a) {
      Acc& acc = it->second[a];
      ++acc.count;
      if (inputs[a] == nullptr) continue;
      const double v = inputs[a](r);
      acc.isum += r.vi;  // reported only for sum(vi)
      acc.fsum += v;
      acc.min = acc.count == 1 ? v : std::min(acc.min, v);
      acc.max = acc.count == 1 ? v : std::max(acc.max, v);
    }
  }
  if (groups.empty() && group_by.empty()) {
    groups.emplace(std::vector<Value>{}, std::vector<Acc>(aggs.size()));
  }
  QueryResult out;
  out.column_names = group_by;
  for (const auto& agg : aggs) out.column_names.push_back(agg.name);
  for (const auto& [key, accs] : groups) {
    std::vector<Value> row = key;
    for (size_t a = 0; a < aggs.size(); ++a) {
      const Acc& acc = accs[a];
      switch (aggs[a].op) {
        case AggDef::Op::kSum:
          if (aggs[a].input == "vi") {
            row.emplace_back(acc.isum);
          } else {
            row.emplace_back(acc.fsum);
          }
          break;
        case AggDef::Op::kCount:
        case AggDef::Op::kCountStar:
          row.emplace_back(acc.count);
          break;
        case AggDef::Op::kMin:
          row.emplace_back(acc.min);
          break;
        case AggDef::Op::kMax:
          row.emplace_back(acc.max);
          break;
        case AggDef::Op::kAvg:
          row.emplace_back(acc.count > 0 ? acc.fsum / acc.count : 0.0);
          break;
      }
    }
    out.rows.push_back(std::move(row));
  }
  std::sort(out.rows.begin(), out.rows.end());
  return out;
}

// The table of `rows`, one column per AggRow field.
Table AggTable(const std::vector<AggRow>& rows) {
  Table t("agg", Schema({{"k64", DataType::kInt64, 0},
                         {"k32", DataType::kInt32, 0},
                         {"kd", DataType::kDate, 0},
                         {"kf", DataType::kFloat64, 0},
                         {"ks", DataType::kChar, 5},
                         {"kc", DataType::kChar, 24},
                         {"vi", DataType::kInt64, 0},
                         {"vn", DataType::kInt32, 0},
                         {"vf", DataType::kFloat64, 0},
                         {"vg", DataType::kFloat64, 0}}));
  for (const AggRow& r : rows) {
    t.column(0).AppendInt64(r.k64);
    t.column(1).AppendInt32(r.k32);
    t.column(2).AppendInt32(r.kd);
    t.column(3).AppendFloat64(r.kf);
    t.column(4).AppendString(r.ks);
    t.column(5).AppendString(r.kc);
    t.column(6).AppendInt64(r.vi);
    t.column(7).AppendInt32(r.vn);
    t.column(8).AppendFloat64(r.vf);
    t.column(9).AppendFloat64(r.vg);
    t.FinishRow();
  }
  return t;
}

TEST(HashAggDifferential, MatchesRowAtATimeOracle) {
  const std::vector<std::vector<std::string>> key_sets = {
      {"k64"}, {"k32"}, {"kd"}, {"kf"}, {"ks"},
      {"k32", "kd", "kf"},  // 16 bytes: two words, mixed types
      {"kc", "k64", "kf"},  // 40 bytes: five words
      {}};                  // scalar
  const std::vector<AggDef> aggs = DifferentialAggs();
  for (uint64_t groups : {0u, 1u, 1023u, 1025u, 100000u}) {
    Rng rng(groups + 11);
    const uint64_t n = groups == 0 ? 500 : 2 * groups + 100;
    std::vector<AggRow> rows;
    rows.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
      // The first `groups` rows visit every group once, in order.
      const uint64_t g = groups == 0 ? i % 7
                         : i < groups ? i
                                      : rng.Below(groups);
      rows.push_back(MakeAggRow(g, std::max<uint64_t>(groups, 1), rng));
    }
    Table t = AggTable(rows);
    // With zero groups the filter drops every row.
    const int64_t min_vi = groups == 0 ? kViRange : -kViRange - 1;
    for (const auto& key : key_sets) {
      // At 100k groups one single-word, one CHAR and the widest composite
      // key suffice; the smaller counts run every key type.
      if (groups == 100000u && key.size() == 1 && key[0] != "k64" &&
          key[0] != "ks") {
        continue;
      }
      const QueryResult expected = OracleAggregate(rows, min_vi, key, aggs);
      if (!key.empty()) {
        ASSERT_EQ(expected.num_rows(), groups);
      }
      for (int threads : {1, 4}) {
        SCOPED_TRACE("groups=" + std::to_string(groups) +
                     " keys=" + std::to_string(key.size()) + ":" +
                     (key.empty() ? "" : key[0]) +
                     " threads=" + std::to_string(threads));
        auto plan = Aggregate(ScanTable(&t, {ScanPredicate::GtI("vi", min_vi)}),
                              key, aggs);
        ExecOptions options;
        options.num_threads = threads;
        QueryResult got = ExecuteQuery(*plan, options);
        EXPECT_EQ(got.column_names, expected.column_names);
        // Exact: every float input is a multiple of 0.25, so sums and
        // averages do not depend on the order rows are added in. Row-wise
        // comparison also pins the canonical order.
        EXPECT_TRUE(got.ApproxEquals(expected, 0.0))
            << "got:\n" << got.ToString(8) << "want:\n"
            << expected.ToString(8);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// The parallel Finish: worker tables split into hash partitions, merged,
// sorted by key range and boxed across the pool. Every worker count must
// give the 1-worker result exactly: same rows, same order, doubles bit for
// bit.
// ---------------------------------------------------------------------------

// Fails unless `got` and `want` match row for row, doubles bit for bit
// (ApproxEquals lets NaN match anything and -0.0 match +0.0).
void ExpectIdentical(const QueryResult& got, const QueryResult& want) {
  ASSERT_EQ(got.column_names, want.column_names);
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t r = 0; r < got.rows.size(); ++r) {
    ASSERT_EQ(got.rows[r].size(), want.rows[r].size());
    for (size_t c = 0; c < got.rows[r].size(); ++c) {
      const Value& a = got.rows[r][c];
      const Value& b = want.rows[r][c];
      const bool same =
          a.index() == b.index() &&
          (std::holds_alternative<double>(a)
               ? std::bit_cast<uint64_t>(std::get<double>(a)) ==
                     std::bit_cast<uint64_t>(std::get<double>(b))
               : a == b);
      ASSERT_TRUE(same) << "row " << r << " column " << c << ": got "
                        << ValueToString(a) << ", want " << ValueToString(b);
    }
  }
}

// Aggregates that stay exact in any addition order over AggRow values.
std::vector<AggDef> FinishAggs() {
  return {AggDef::Sum("vi", "sum_i"), AggDef::Sum("vf", "sum_f"),
          AggDef::CountStar("star"),  AggDef::Min("vi", "min_i"),
          AggDef::Max("vf", "max_f"), AggDef::Min("vg", "min_g"),
          AggDef::Max("vg", "max_g"), AggDef::Avg("vf", "avg_f")};
}

// Runs `aggs` grouped by `key` over `t` on 1, 2, 3, 4 and 8 workers and
// returns the 1-worker result; every other run must be identical to it.
QueryResult RunOnEveryWorkerCount(const Table& t,
                                  const std::vector<std::string>& key,
                                  const std::vector<AggDef>& aggs) {
  QueryResult one;
  for (int threads : {1, 2, 3, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    ExecOptions options;
    options.num_threads = threads;
    QueryResult got = ExecuteQuery(*Aggregate(ScanTable(&t), key, aggs),
                                   options);
    if (threads == 1) {
      one = std::move(got);
    } else {
      ExpectIdentical(got, one);
    }
  }
  return one;
}

// `n` rows over `groups` groups. Clustered rows visit the groups in order,
// a run of rows each, so a worker's morsels see few of its peers' groups and
// the summed worker group count stays near `groups`. Scattered rows visit
// every group once, then random ones, so every worker holds partials of
// most groups.
std::vector<AggRow> FinishRows(uint64_t groups, uint64_t n, bool clustered) {
  Rng rng(groups + n);
  std::vector<AggRow> rows;
  rows.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t g = clustered   ? i * groups / n
                       : i < groups ? i
                                    : rng.Below(groups);
    rows.push_back(MakeAggRow(g, groups, rng));
  }
  return rows;
}

TEST(HashAggParallelFinish, MatchesOneWorkerAndOracleAroundTheThreshold) {
  // Four morsels of clustered rows: one partition just below the threshold,
  // partitions just above it.
  constexpr uint64_t kRows = 4 * kDefaultMorselSize;
  for (uint64_t groups : {HashAggOp::kParallelFinishGroups - 64,
                          HashAggOp::kParallelFinishGroups + 64}) {
    SCOPED_TRACE("groups=" + std::to_string(groups));
    const std::vector<AggRow> rows = FinishRows(groups, kRows, true);
    const Table t = AggTable(rows);
    for (const std::vector<std::string>& key :
         {std::vector<std::string>{"k64"},
          std::vector<std::string>{"kc", "k64", "kf"}}) {
      SCOPED_TRACE("key=" + key[0]);
      const QueryResult one = RunOnEveryWorkerCount(t, key, FinishAggs());
      ASSERT_EQ(one.num_rows(), groups);
      ExpectIdentical(one, OracleAggregate(rows, -kViRange - 1, key,
                                           FinishAggs()));
    }
  }
}

TEST(HashAggParallelFinish, MatchesOneWorkerAndOracleAt150kGroups) {
  // The shape of the full-lineitem group-bys of Q18 and Q21.
  constexpr uint64_t kGroups = 150000;
  const std::vector<AggRow> rows = FinishRows(kGroups, 2 * kGroups, false);
  const Table t = AggTable(rows);
  const QueryResult one = RunOnEveryWorkerCount(t, {"k64"}, FinishAggs());
  ASSERT_EQ(one.num_rows(), kGroups);
  ExpectIdentical(one,
                  OracleAggregate(rows, -kViRange - 1, {"k64"}, FinishAggs()));
}

TEST(HashAggParallelFinish, CharKeysSharingTheirSortPrefix) {
  // Every key starts with the same 8 bytes, so the sort prefix ties for all
  // groups and the order rests on the full key comparison.
  constexpr uint64_t kGroups = 20000;
  std::vector<AggRow> rows = FinishRows(kGroups, 3 * kGroups, false);
  for (AggRow& r : rows) {
    char name[32];
    std::snprintf(name, sizeof(name), "Customer#%09lld",
                  static_cast<long long>(r.k64));
    r.kc = name;
  }
  const Table t = AggTable(rows);
  const QueryResult one = RunOnEveryWorkerCount(t, {"kc"}, FinishAggs());
  ASSERT_EQ(one.num_rows(), kGroups);
  ExpectIdentical(one,
                  OracleAggregate(rows, -kViRange - 1, {"kc"}, FinishAggs()));
}

TEST(HashAggParallelFinish, NaNMinMaxMergeAcrossWorkers) {
  // Every tenth group sees only NaN in vg, so its min_g and max_g are NaN
  // whatever order the partials merge in; the other groups see no NaN.
  constexpr uint64_t kGroups = 12000;
  std::vector<AggRow> rows = FinishRows(kGroups, 4 * kGroups, false);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (AggRow& r : rows) {
    if (r.k32 % 10 == 0) r.vg = nan;
  }
  const Table t = AggTable(rows);
  const QueryResult one = RunOnEveryWorkerCount(t, {"k32"}, FinishAggs());
  ASSERT_EQ(one.num_rows(), kGroups);
  size_t nan_groups = 0;
  for (const auto& row : one.rows) {
    nan_groups += std::isnan(std::get<double>(row[6])) ? 1 : 0;
  }
  EXPECT_EQ(nan_groups, kGroups / 10);
  ExpectIdentical(one,
                  OracleAggregate(rows, -kViRange - 1, {"k32"}, FinishAggs()));
}

TEST(HashAggParallelFinish, SignedZeroKeysInDifferentPartitions) {
  // Finish partitions by the top bits of the key hash: +0.0 hashes to 0 and
  // -0.0 to a hash with its top bit set, so the two land in different
  // partitions. They compare equal, so their order falls back to the boxed
  // rows (sum 3 before sum 5), and with equal rows to the key bytes (+0.0
  // first).
  ASSERT_EQ(HashInt64(std::bit_cast<uint64_t>(0.0)) >> 63, 0u);
  ASSERT_EQ(HashInt64(std::bit_cast<uint64_t>(-0.0)) >> 63, 1u);
  constexpr uint64_t kGroups = 6000;
  Table t("z", Schema({{"f", DataType::kFloat64, 0},
                       {"v", DataType::kInt64, 0}}));
  auto add = [&](double f, int64_t v) {
    t.column(0).AppendFloat64(f);
    t.column(1).AppendInt64(v);
    t.FinishRow();
  };
  add(-0.0, 3);
  Rng rng(5);
  for (uint64_t i = 0; i < 4 * kDefaultMorselSize; ++i) {
    add(static_cast<double>(rng.Below(kGroups) + 1) * 0.5, 1);
  }
  add(0.0, 5);
  const QueryResult sums =
      RunOnEveryWorkerCount(t, {"f"}, {AggDef::Sum("v", "sv")});
  ASSERT_EQ(sums.num_rows(), kGroups + 2);
  EXPECT_TRUE(std::signbit(std::get<double>(sums.rows[0][0])));
  EXPECT_EQ(std::get<int64_t>(sums.rows[0][1]), 3);
  EXPECT_FALSE(std::signbit(std::get<double>(sums.rows[1][0])));
  EXPECT_EQ(std::get<int64_t>(sums.rows[1][1]), 5);

  const QueryResult counts =
      RunOnEveryWorkerCount(t, {"f"}, {AggDef::Count("v", "n")});
  ASSERT_EQ(counts.num_rows(), kGroups + 2);
  EXPECT_FALSE(std::signbit(std::get<double>(counts.rows[0][0])));
  EXPECT_TRUE(std::signbit(std::get<double>(counts.rows[1][0])));
}

TEST(HashAggParallelFinish, PartitionsThatReceiveNoGroups) {
  // Keys whose hash has a clear top bit leave the upper half of the
  // partitions without a single group.
  constexpr uint64_t kGroups = 20000;
  std::vector<int64_t> keys;
  for (uint64_t k = 0; keys.size() < kGroups; ++k) {
    if (HashInt64(k) >> 63 == 0) keys.push_back(static_cast<int64_t>(k));
  }
  std::vector<AggRow> rows = FinishRows(kGroups, 3 * kGroups, false);
  for (AggRow& r : rows) {
    r.k64 = keys[static_cast<uint64_t>(r.k32 + 500000) / 37];
  }
  const Table t = AggTable(rows);
  const QueryResult one = RunOnEveryWorkerCount(t, {"k64"}, FinishAggs());
  ASSERT_EQ(one.num_rows(), kGroups);
  ExpectIdentical(one,
                  OracleAggregate(rows, -kViRange - 1, {"k64"}, FinishAggs()));
}

}  // namespace
}  // namespace pjoin
