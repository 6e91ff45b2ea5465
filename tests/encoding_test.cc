// Encoding differential slice: encoded segments, join-on-codes, the spill
// page codec, and the unpack/gather kernels, all checked against plain-mode
// runs and nested-loop oracles. Runs under `ctest -L encoding`.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "engine/coded_keys.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "kernels/kernels.h"
#include "spill/memory_governor.h"
#include "spill/spill_page.h"
#include "stats/column_catalog.h"
#include "storage/table.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/simd.h"

namespace pjoin {
namespace {

std::string MakeKey(int64_t id) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "k%05lld", static_cast<long long>(id));
  return buf;
}

// ---- Encoded segments ----------------------------------------------------

TEST(EncodedSegment, DictEncodesCharColumn) {
  Table t("chars", Schema({{"c_key", DataType::kChar, 8}}));
  for (int64_t i = 0; i < 1000; ++i) {
    t.column(0).AppendString(MakeKey((i * 7) % 37));
    t.FinishRow();
  }
  EncodedTable et = ColumnCatalog::Build(t).encoded;
  const EncodedColumn* c = et.column(0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, EncodedColumn::Kind::kDict);
  EXPECT_EQ(c->ndv, 37u);
  EXPECT_EQ(c->code_width, 1u);
  EXPECT_EQ(c->value_width, 8u);
  EXPECT_EQ(c->rows, 1000u);
  EXPECT_LT(c->encoded_bytes(), c->plain_bytes());
  // Dictionary is sorted by raw byte order (code order == memcmp order).
  for (uint32_t code = 1; code < c->ndv; ++code) {
    EXPECT_LT(std::memcmp(c->DictValue(code - 1), c->DictValue(code), 8), 0);
  }
  // Codes round-trip to the original raw bytes.
  for (uint64_t r = 0; r < c->rows; ++r) {
    ASSERT_EQ(
        std::memcmp(c->DictValue(c->CodeAt(r)), t.column(0).Raw(r), 8), 0);
  }
}

TEST(EncodedSegment, DictCodeWidthFollowsCardinality) {
  Table t("chars", Schema({{"c_key", DataType::kChar, 16}}));
  for (int64_t i = 0; i < 2000; ++i) {
    t.column(0).AppendString("value" + std::to_string(i % 1000));
    t.FinishRow();
  }
  EncodedTable et = ColumnCatalog::Build(t).encoded;
  const EncodedColumn* c = et.column(0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->ndv, 1000u);
  EXPECT_EQ(c->code_width, 2u);
}

TEST(EncodedSegment, ForEncodesIntColumn) {
  Table t("ints", Schema({{"i_val", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < 500; ++i) {
    t.column(0).AppendInt64(1000000 + (i * 97) % 50000);
    t.FinishRow();
  }
  EncodedTable et = ColumnCatalog::Build(t).encoded;
  const EncodedColumn* c = et.column(0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->kind, EncodedColumn::Kind::kFor);
  EXPECT_EQ(c->code_width, 2u);  // range < 2^16
  for (uint64_t r = 0; r < c->rows; ++r) {
    ASSERT_EQ(c->ref + static_cast<int64_t>(c->CodeAt(r)),
              t.column(0).GetInt64(r));
  }
}

TEST(EncodedSegment, WideRangeIntStaysNarrowerThanPlain) {
  Table t("ints", Schema({{"i_val", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < 300; ++i) {
    t.column(0).AppendInt64(i * 1000003);  // range needs 4-byte codes
    t.FinishRow();
  }
  EncodedTable et = ColumnCatalog::Build(t).encoded;
  const EncodedColumn* c = et.column(0);
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->code_width, 4u);
  EXPECT_LT(c->encoded_bytes(), c->plain_bytes());
}

TEST(EncodingCatalog, SmallTablesStayPlain) {
  ScopedEnv enable("PJOIN_ENCODING", "1");  // robust to an env-off suite run
  ColumnCatalog::Global().Invalidate();
  Table t("tiny", Schema({{"c_key", DataType::kChar, 8}}));
  for (uint64_t i = 0; i + 1 < ColumnCatalog::kEncodingMinRows; ++i) {
    t.column(0).AppendString(MakeKey(i % 5));
    t.FinishRow();
  }
  ASSERT_EQ(t.num_rows(), 255u);
  EXPECT_EQ(ColumnCatalog::Global().GetEncoded(t), nullptr);
  // The statistics are there either way: the value map counts exactly.
  ASSERT_NE(ColumnCatalog::Global().Get(t), nullptr);
  EXPECT_EQ(ColumnCatalog::Global().Get(t)->columns[0].distinct, 5u);
  // One more row reaches the threshold; the append rebuilds the entry.
  t.column(0).AppendString(MakeKey(0));
  t.FinishRow();
  const EncodedTable* et = ColumnCatalog::Global().GetEncoded(t);
  ASSERT_NE(et, nullptr);
  EXPECT_EQ(et->rows, 256u);
  EXPECT_EQ(et->column(0)->ndv, 5u);
  ColumnCatalog::Global().Invalidate();
}

TEST(EncodingCatalog, DisabledByEnv) {
  ScopedEnv enable("PJOIN_ENCODING", "1");
  ColumnCatalog::Global().Invalidate();
  Table t("chars", Schema({{"c_key", DataType::kChar, 8}}));
  for (int64_t i = 0; i < 500; ++i) {
    t.column(0).AppendString(MakeKey(i % 20));
    t.FinishRow();
  }
  {
    ScopedEnv off("PJOIN_ENCODING", "0");
    EXPECT_EQ(ColumnCatalog::Global().GetEncoded(t), nullptr);
    EXPECT_EQ(ColumnCatalog::Global().GetColumn(t, 0), nullptr);
  }
  EXPECT_NE(ColumnCatalog::Global().GetEncoded(t), nullptr);
  ColumnCatalog::Global().Invalidate();
}

TEST(EncodingCatalog, AppendReencodes) {
  ScopedEnv enable("PJOIN_ENCODING", "1");
  ColumnCatalog::Global().Invalidate();
  Table t("chars", Schema({{"c_key", DataType::kChar, 8}}));
  for (int64_t i = 0; i < 400; ++i) {
    t.column(0).AppendString(MakeKey(i % 10));
    t.FinishRow();
  }
  const EncodedTable* before = ColumnCatalog::Global().GetEncoded(t);
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->column(0)->ndv, 10u);
  // In-place append: the fingerprint changes and Get re-encodes.
  for (int64_t i = 0; i < 100; ++i) {
    t.column(0).AppendString(MakeKey(100 + i));
    t.FinishRow();
  }
  const EncodedTable* after = ColumnCatalog::Global().GetEncoded(t);
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->rows, 500u);
  EXPECT_EQ(after->column(0)->ndv, 110u);
  ColumnCatalog::Global().Invalidate();
}

TEST(CodedKeys, RemapMergesDictionaries) {
  Table build("b", Schema({{"b_key", DataType::kChar, 8}}));
  Table probe("p", Schema({{"p_key", DataType::kChar, 8}}));
  // Build holds even ids 0..98; probe holds all ids 0..79. Odd probe ids
  // and even ids >= 80 behave differently: odd ids are absent from the
  // build dictionary, even ids < 80 are present.
  for (int64_t i = 0; i < 300; ++i) {
    build.column(0).AppendString(MakeKey((i % 50) * 2));
    build.FinishRow();
  }
  for (int64_t i = 0; i < 300; ++i) {
    probe.column(0).AppendString(MakeKey(i % 80));
    probe.FinishRow();
  }
  EncodedTable eb = ColumnCatalog::Build(build).encoded;
  EncodedTable ep = ColumnCatalog::Build(probe).encoded;
  ASSERT_NE(eb.column(0), nullptr);
  ASSERT_NE(ep.column(0), nullptr);
  std::vector<uint32_t> remap = BuildCodeRemap(*ep.column(0), *eb.column(0));
  ASSERT_EQ(remap.size(), ep.column(0)->ndv);
  for (uint32_t code = 0; code < ep.column(0)->ndv; ++code) {
    const std::byte* raw = ep.column(0)->DictValue(code);
    // Probe dict is sorted over MakeKey(0..79); recover the id from raw.
    const std::string value(reinterpret_cast<const char*>(raw), 8);
    const int64_t id = std::strtoll(value.c_str() + 1, nullptr, 10);
    if (id % 2 == 0 && id < 100) {
      ASSERT_NE(remap[code], kNoCode);
      EXPECT_EQ(std::memcmp(eb.column(0)->DictValue(remap[code]), raw, 8), 0);
    } else {
      EXPECT_EQ(remap[code], kNoCode);
    }
  }
}

// ---- Spill page codec ----------------------------------------------------

TEST(SpillPageCodec, RoundTripsRepetitivePages) {
  const uint32_t stride = 24;
  std::vector<std::byte> page(stride * 1000);
  for (size_t i = 0; i < page.size(); ++i) {
    // Bytes repeat heavily down each plane: plane value depends mostly on
    // the byte position, with a slow-changing low component.
    page[i] = static_cast<std::byte>((i % stride) + (i / (stride * 100)));
  }
  std::vector<std::byte> enc;
  EncodeSpillPage(page.data(), page.size(), stride, &enc);
  ASSERT_FALSE(enc.empty());
  EXPECT_EQ(static_cast<uint8_t>(enc[0]), 1u);  // plane-RLE mode
  EXPECT_LT(enc.size(), page.size());
  std::vector<std::byte> dec(page.size());
  DecodeSpillPage(enc.data(), enc.size(), page.size(), stride, dec.data());
  EXPECT_EQ(std::memcmp(dec.data(), page.data(), page.size()), 0);
}

TEST(SpillPageCodec, RandomPagesFallBackToRaw) {
  const uint32_t stride = 32;
  std::vector<std::byte> page(stride * 500);
  Rng rng(42);
  for (auto& b : page) b = static_cast<std::byte>(rng.Next() & 0xFF);
  std::vector<std::byte> enc;
  EncodeSpillPage(page.data(), page.size(), stride, &enc);
  ASSERT_FALSE(enc.empty());
  EXPECT_LE(enc.size(), page.size() + 1);  // never worse than raw + mode byte
  std::vector<std::byte> dec(page.size());
  DecodeSpillPage(enc.data(), enc.size(), page.size(), stride, dec.data());
  EXPECT_EQ(std::memcmp(dec.data(), page.data(), page.size()), 0);
}

TEST(SpillPageCodec, RoundTripsAcrossStrides) {
  Rng rng(7);
  for (uint32_t stride : {8u, 16u, 24u, 40u, 64u}) {
    for (size_t tuples : {1u, 7u, 255u, 256u, 1000u}) {
      std::vector<std::byte> page(stride * tuples);
      for (size_t i = 0; i < page.size(); ++i) {
        // Mix of constant planes and low-entropy planes.
        page[i] = (i % stride < stride / 2)
                      ? std::byte{0x5A}
                      : static_cast<std::byte>(rng.Below(4));
      }
      std::vector<std::byte> enc;
      EncodeSpillPage(page.data(), page.size(), stride, &enc);
      std::vector<std::byte> dec(page.size());
      DecodeSpillPage(enc.data(), enc.size(), page.size(), stride, dec.data());
      ASSERT_EQ(std::memcmp(dec.data(), page.data(), page.size()), 0)
          << "stride=" << stride << " tuples=" << tuples;
    }
  }
}

// ---- Kernels -------------------------------------------------------------

TEST(EncodingKernels, UnpackCodesMatchesOracleAcrossTiers) {
  Rng rng(11);
  for (uint32_t code_width : {1u, 2u, 4u}) {
    for (uint32_t n : {1u, 7u, 64u, 1000u, 1023u}) {
      std::vector<std::byte> codes(n * code_width);
      for (auto& b : codes) b = static_cast<std::byte>(rng.Next() & 0xFF);
      std::vector<uint32_t> expected(n);
      for (uint32_t i = 0; i < n; ++i) {
        uint32_t v = 0;
        std::memcpy(&v, codes.data() + i * code_width, code_width);
        expected[i] = v;
      }
      for (SimdTier tier :
           {SimdTier::kScalar, SimdTier::kAVX2, SimdTier::kAVX512}) {
        std::vector<uint32_t> out(n, 0xDEADBEEF);
        KernelsFor(tier).unpack_codes(codes.data(), code_width, n, out.data());
        ASSERT_EQ(out, expected)
            << "tier=" << static_cast<int>(tier) << " width=" << code_width
            << " n=" << n;
      }
    }
  }
}

TEST(EncodingKernels, DictGatherMatchesOracleAcrossTiers) {
  Rng rng(13);
  for (uint32_t value_width : {4u, 8u, 16u}) {
    const uint32_t dict_entries = 100;
    std::vector<std::byte> dict(dict_entries * value_width);
    for (auto& b : dict) b = static_cast<std::byte>(rng.Next() & 0xFF);
    for (uint32_t n : {1u, 33u, 1000u}) {
      std::vector<uint32_t> codes(n);
      for (auto& c : codes) c = static_cast<uint32_t>(rng.Below(dict_entries));
      std::vector<std::byte> expected(n * value_width);
      for (uint32_t i = 0; i < n; ++i) {
        std::memcpy(expected.data() + i * value_width,
                    dict.data() + codes[i] * value_width, value_width);
      }
      for (SimdTier tier :
           {SimdTier::kScalar, SimdTier::kAVX2, SimdTier::kAVX512}) {
        std::vector<std::byte> out(n * value_width);
        KernelsFor(tier).dict_gather(dict.data(), value_width, codes.data(), n,
                                     out.data());
        ASSERT_EQ(std::memcmp(out.data(), expected.data(), out.size()), 0)
            << "tier=" << static_cast<int>(tier) << " vw=" << value_width
            << " n=" << n;
      }
    }
  }
}

// ---- Engine differential -------------------------------------------------

// A dimension/fact pair on CHAR(8) keys, plus int-ified mirrors for the
// nested-loop oracle. Build ids cover 0..149 (ids 130..149 never appear in
// the fact side, so build-anti rows are guaranteed); probe ids cover
// {0..129} u {150..219}, so a third of probe values miss the build
// dictionary and the kNoCode path runs on every kind.
struct DiffData {
  std::unique_ptr<Table> dim;
  std::unique_ptr<Table> fact;
  IntRows build;  // [key_id, d_val]
  IntRows probe;  // [key_id, f_grp, f_val]
};

DiffData MakeDiffData(uint64_t seed, int64_t dim_rows = 400,
                      int64_t fact_rows = 3000) {
  DiffData d;
  d.dim = std::make_unique<Table>(
      "dim", Schema({{"d_key", DataType::kChar, 8},
                     {"d_val", DataType::kInt64, 0}}));
  d.fact = std::make_unique<Table>(
      "fact", Schema({{"f_key", DataType::kChar, 8},
                      {"f_grp", DataType::kInt64, 0},
                      {"f_val", DataType::kInt64, 0}}));
  Rng rng(seed);
  for (int64_t i = 0; i < dim_rows; ++i) {
    const int64_t id =
        i < 150 ? i : static_cast<int64_t>(rng.Below(150));  // all ids present
    const int64_t val = static_cast<int64_t>(rng.Below(1000));
    d.dim->column(0).AppendString(MakeKey(id));
    d.dim->column(1).AppendInt64(val);
    d.dim->FinishRow();
    d.build.push_back({id, val});
  }
  for (int64_t i = 0; i < fact_rows; ++i) {
    const int64_t u = static_cast<int64_t>(rng.Below(200));
    const int64_t id = u < 130 ? u : u + 20;  // skips build ids 130..149
    const int64_t grp = static_cast<int64_t>(rng.Below(7));
    const int64_t val = static_cast<int64_t>(rng.Below(1000));
    d.fact->column(0).AppendString(MakeKey(id));
    d.fact->column(1).AppendInt64(grp);
    d.fact->column(2).AppendInt64(val);
    d.fact->FinishRow();
    d.probe.push_back({id, grp, val});
  }
  return d;
}

std::unique_ptr<PlanNode> MakeDiffPlan(const DiffData& d, JoinKind kind) {
  std::vector<AggDef> aggs = {AggDef::CountStar("cnt"),
                              AggDef::Sum("d_val", "sd"),
                              AggDef::Sum("f_val", "sf")};
  if (kind == JoinKind::kMark) aggs.push_back(AggDef::Sum("has_dim", "sm"));
  return Aggregate(
      Join(ScanTable(d.dim.get()), ScanTable(d.fact.get()),
           {{"d_key", "f_key"}}, kind,
           kind == JoinKind::kMark ? "has_dim" : ""),
      {"f_grp"}, std::move(aggs));
}

// Aggregates a ReferenceJoin output ([key, d_val, key, f_grp, f_val(, mark)])
// the way the engine plan above does: group by f_grp, count, sum d_val and
// f_val (and the mark for kMark). Absent-side zeros match the engine's null
// padding, so the sums agree exactly.
IntRows ExpectedAgg(const IntRows& joined, bool mark) {
  std::map<int64_t, std::vector<int64_t>> acc;
  for (const auto& row : joined) {
    auto [it, inserted] =
        acc.emplace(row[3], std::vector<int64_t>(mark ? 4 : 3, 0));
    it->second[0] += 1;
    it->second[1] += row[1];
    it->second[2] += row[4];
    if (mark) it->second[3] += row[5];
  }
  IntRows out;
  for (const auto& [grp, sums] : acc) {
    std::vector<int64_t> row = {grp};
    row.insert(row.end(), sums.begin(), sums.end());
    out.push_back(std::move(row));
  }
  return out;  // std::map iteration is already sorted by group
}

IntRows ResultToIntRows(const QueryResult& r) {
  IntRows out;
  for (const auto& row : r.rows) {
    std::vector<int64_t> ints;
    for (const auto& v : row) ints.push_back(std::get<int64_t>(v));
    out.push_back(std::move(ints));
  }
  std::sort(out.begin(), out.end());
  return out;
}

class EncodingDifferentialTest : public ::testing::TestWithParam<JoinKind> {
 protected:
  void SetUp() override { ColumnCatalog::Global().Invalidate(); }
  void TearDown() override { ColumnCatalog::Global().Invalidate(); }
  // The on-leg must mean "on" even when the suite runs under
  // PJOIN_ENCODING=0 (the CI goldens job): pin the knob per test.
  ScopedEnv enable_{"PJOIN_ENCODING", "1"};
};

TEST_P(EncodingDifferentialTest, MatchesPlainModeAndOracle) {
  const JoinKind kind = GetParam();
  DiffData d = MakeDiffData(1000 + static_cast<uint64_t>(kind) * 31);
  auto plan = MakeDiffPlan(d, kind);

  for (JoinStrategy strategy :
       {JoinStrategy::kBHJ, JoinStrategy::kRJ, JoinStrategy::kAuto}) {
    SCOPED_TRACE(JoinStrategyName(strategy));
    ExecOptions opts;
    opts.join_strategy = strategy;
    opts.num_threads = 2;

    QueryStats on_stats;
    QueryResult on = ExecuteQuery(*plan, opts, &on_stats);
    QueryResult off;
    {
      ScopedEnv env_off("PJOIN_ENCODING", "0");
      off = ExecuteQuery(*plan, opts);
    }
    // Bit-identical across modes: same schema, same exact values.
    ASSERT_EQ(on.column_names, off.column_names);
    ASSERT_EQ(on.rows, off.rows);

    // Both match the nested-loop oracle on the int-ified mirror.
    IntRows joined = ReferenceJoin(d.build, d.probe, 0, kind, 2, 3);
    IntRows expected = ExpectedAgg(joined, kind == JoinKind::kMark);
    ASSERT_EQ(ResultToIntRows(on), expected);

    // The CHAR key pair actually joined on codes.
    ASSERT_EQ(on_stats.metrics.joins().size(), 1u);
    EXPECT_EQ(on_stats.metrics.joins()[0].coded_key_pairs, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, EncodingDifferentialTest,
    ::testing::Values(JoinKind::kInner, JoinKind::kProbeSemi,
                      JoinKind::kProbeAnti, JoinKind::kBuildSemi,
                      JoinKind::kBuildAnti, JoinKind::kLeftOuter,
                      JoinKind::kRightOuter, JoinKind::kMark),
    [](const ::testing::TestParamInfo<JoinKind>& info) {
      std::string name = JoinKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(EncodingDifferential, MultiColumnCharKeys) {
  ScopedEnv enable("PJOIN_ENCODING", "1");
  ColumnCatalog::Global().Invalidate();
  auto dim = std::make_unique<Table>(
      "mdim", Schema({{"d_k1", DataType::kChar, 8},
                      {"d_k2", DataType::kChar, 8},
                      {"d_val", DataType::kInt64, 0}}));
  auto fact = std::make_unique<Table>(
      "mfact", Schema({{"f_k1", DataType::kChar, 8},
                       {"f_k2", DataType::kChar, 8},
                       {"f_grp", DataType::kInt64, 0},
                       {"f_val", DataType::kInt64, 0}}));
  IntRows build, probe;  // composite key = k1 * 100 + k2
  Rng rng(99);
  for (int64_t i = 0; i < 400; ++i) {
    const int64_t k1 = static_cast<int64_t>(rng.Below(20));
    const int64_t k2 = static_cast<int64_t>(rng.Below(20));
    const int64_t val = static_cast<int64_t>(rng.Below(1000));
    dim->column(0).AppendString(MakeKey(k1));
    dim->column(1).AppendString(MakeKey(k2));
    dim->column(2).AppendInt64(val);
    dim->FinishRow();
    build.push_back({k1 * 100 + k2, val});
  }
  for (int64_t i = 0; i < 2000; ++i) {
    const int64_t k1 = static_cast<int64_t>(rng.Below(25));
    const int64_t k2 = static_cast<int64_t>(rng.Below(25));
    const int64_t grp = static_cast<int64_t>(rng.Below(5));
    const int64_t val = static_cast<int64_t>(rng.Below(1000));
    fact->column(0).AppendString(MakeKey(k1));
    fact->column(1).AppendString(MakeKey(k2));
    fact->column(2).AppendInt64(grp);
    fact->column(3).AppendInt64(val);
    fact->FinishRow();
    probe.push_back({k1 * 100 + k2, grp, val});
  }
  for (JoinKind kind : {JoinKind::kInner, JoinKind::kLeftOuter}) {
    SCOPED_TRACE(JoinKindName(kind));
    auto plan = Aggregate(
        Join(ScanTable(dim.get()), ScanTable(fact.get()),
             {{"d_k1", "f_k1"}, {"d_k2", "f_k2"}}, kind),
        {"f_grp"},
        {AggDef::CountStar("cnt"), AggDef::Sum("d_val", "sd"),
         AggDef::Sum("f_val", "sf")});
    ExecOptions opts;
    QueryStats stats;
    QueryResult on = ExecuteQuery(*plan, opts, &stats);
    QueryResult off;
    {
      ScopedEnv env_off("PJOIN_ENCODING", "0");
      off = ExecuteQuery(*plan, opts);
    }
    ASSERT_EQ(on.rows, off.rows);
    IntRows joined = ReferenceJoin(build, probe, 0, kind, 2, 3);
    ASSERT_EQ(ResultToIntRows(on), ExpectedAgg(joined, false));
    ASSERT_EQ(stats.metrics.joins().size(), 1u);
    EXPECT_EQ(stats.metrics.joins()[0].coded_key_pairs, 2u);
  }
  ColumnCatalog::Global().Invalidate();
}

TEST(EncodingDifferential, ComposesWithMemoryBudget) {
  ScopedEnv enable("PJOIN_ENCODING", "1");
  ColumnCatalog::Global().Invalidate();
  // Large enough to blow a 16 KiB budget on the build side; repetitive
  // payloads so the compressed spill pages actually shrink the file.
  DiffData d = MakeDiffData(555, /*dim_rows=*/4000, /*fact_rows=*/8000);
  auto plan = MakeDiffPlan(d, JoinKind::kInner);
  ExecOptions opts;
  opts.join_strategy = JoinStrategy::kRJ;
  opts.num_threads = 2;

  QueryResult unbudgeted = ExecuteQuery(*plan, opts);
  QueryStats budgeted_stats;
  QueryResult budgeted;
  {
    ScopedMemoryBudget scoped(16 * 1024);
    budgeted = ExecuteQuery(*plan, opts, &budgeted_stats);
  }
  ASSERT_EQ(budgeted.rows, unbudgeted.rows);
  IntRows joined = ReferenceJoin(d.build, d.probe, 0, JoinKind::kInner, 2, 3);
  ASSERT_EQ(ResultToIntRows(budgeted), ExpectedAgg(joined, false));

  ASSERT_EQ(budgeted_stats.metrics.joins().size(), 1u);
  const SpillMetrics& sp = budgeted_stats.metrics.joins()[0].spill;
  ASSERT_GT(sp.partitions_spilled, 0u) << "tiny budget must force a spill";
  EXPECT_TRUE(sp.compressed);
  EXPECT_GT(sp.physical_bytes_written, 0u);
  EXPECT_GT(sp.physical_bytes_read, 0u);
  // Compressed pages beat the logical tuple bytes on this data.
  EXPECT_LT(sp.physical_bytes_written, sp.bytes_written);

  // Same rows again with the budget AND encoding both off.
  {
    ScopedMemoryBudget scoped(16 * 1024);
    ScopedEnv env_off("PJOIN_ENCODING", "0");
    QueryResult plain = ExecuteQuery(*plan, opts);
    ASSERT_EQ(plain.rows, unbudgeted.rows);
  }
  ColumnCatalog::Global().Invalidate();
}

TEST(EncodingExec, ObservabilitySurfacesEncodedScans) {
  ScopedEnv enable("PJOIN_ENCODING", "1");
  ColumnCatalog::Global().Invalidate();
  DiffData d = MakeDiffData(321);
  auto plan = MakeDiffPlan(d, JoinKind::kInner);
  ExecOptions opts;
  QueryStats stats;
  ExecuteQuery(*plan, opts, &stats);
  // Both scans read codes narrower than the plain rows.
  int encoded_scans = 0;
  for (const ScanMetrics& s : stats.metrics.scans()) {
    if (!s.encoded) continue;
    ++encoded_scans;
    EXPECT_GT(s.enc_read_width, 0u);
    EXPECT_LT(s.enc_read_width, s.plain_read_width);
  }
  EXPECT_EQ(encoded_scans, 2);
  // The JSON carries the query-level encoding section with the same story.
  const std::string json = stats.metrics.ToJson();
  EXPECT_NE(json.find("\"encoding\""), std::string::npos);
  EXPECT_NE(json.find("\"coded_join_pairs\":1"), std::string::npos);
  {
    ScopedEnv env_off("PJOIN_ENCODING", "0");
    QueryStats off_stats;
    ExecuteQuery(*plan, opts, &off_stats);
    EXPECT_NE(off_stats.metrics.ToJson().find(
                  "\"encoding\":{\"scans_encoded\":0,\"coded_join_pairs\":0"),
              std::string::npos);
  }
  ColumnCatalog::Global().Invalidate();
}

}  // namespace
}  // namespace pjoin
