// Differential join testing: seeded random workloads sweeping selectivity,
// duplicate factor, payload width, key skew, and build:probe ratio, each run
// through every physical strategy (BHJ, RJ, BRJ) and every join kind, and
// compared row-for-row against the nested-loop reference. This is the
// drop-in-replacement claim of the paper checked in bulk: whatever the data
// shape, partitioned and non-partitioned joins must be indistinguishable in
// output.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "engine/executor.h"
#include "engine/plan.h"
#include "exec/pipeline.h"
#include "exec/thread_pool.h"
#include "join/hash_join.h"
#include "join/join_types.h"
#include "join/radix_join.h"
#include "spill/memory_governor.h"
#include "tests/test_util.h"
#include "util/rng.h"
#include "util/zipf.h"

namespace pjoin {
namespace {

// One data shape. Key universe is build_rows / dup_factor keys; the probe
// side draws from universe_mult times that range, so roughly 1/universe_mult
// of probe tuples find partners. theta > 0 makes probe keys Zipf-skewed.
struct DataConfig {
  const char* name;
  uint64_t build_rows;
  uint64_t probe_rows;
  uint64_t dup_factor;    // average duplicates per build key
  uint64_t universe_mult; // probe universe / build universe ≈ 1/selectivity
  double theta;           // Zipf skew of probe keys (0 = uniform)
  int build_cols;         // key + payload columns on the build side
  int probe_cols;
};

// One-dimension-at-a-time sweep around a common base shape.
const DataConfig kConfigs[] = {
    // base
    {"base", 1000, 4000, 2, 2, 0.0, 2, 2},
    // selectivity: every probe key matches ... almost none do
    {"sel_all", 1000, 4000, 2, 1, 0.0, 2, 2},
    {"sel_quarter", 1000, 4000, 2, 4, 0.0, 2, 2},
    {"sel_tenth", 1000, 4000, 2, 10, 0.0, 2, 2},
    {"sel_rare", 1000, 4000, 2, 50, 0.0, 2, 2},
    // duplicate factor: unique keys ... heavy multi-matches
    {"dup_unique", 1000, 4000, 1, 2, 0.0, 2, 2},
    {"dup_4", 1000, 4000, 4, 2, 0.0, 2, 2},
    {"dup_16", 1000, 4000, 16, 2, 0.0, 2, 2},
    // payload width (tuple size drives partitioning bandwidth)
    {"pay_narrow", 1000, 4000, 2, 2, 0.0, 1, 1},
    {"pay_build_wide", 1000, 4000, 2, 2, 0.0, 3, 2},
    {"pay_probe_wide", 1000, 4000, 2, 2, 0.0, 2, 4},
    // probe-key skew (the Zipf workloads of Section 5.2.3)
    {"zipf_mild", 1000, 4000, 2, 2, 0.5, 2, 2},
    {"zipf_medium", 1000, 4000, 2, 2, 0.8, 2, 2},
    {"zipf_heavy", 1000, 4000, 2, 2, 1.2, 2, 2},
    // build:probe ratio (Figure 7's sweep)
    {"ratio_1_1", 2000, 2000, 2, 2, 0.0, 2, 2},
    {"ratio_1_8", 500, 4000, 2, 2, 0.0, 2, 2},
    {"ratio_1_32", 250, 8000, 2, 2, 0.0, 2, 2},
};

const JoinKind kKinds[] = {
    JoinKind::kInner,     JoinKind::kProbeSemi, JoinKind::kProbeAnti,
    JoinKind::kBuildSemi, JoinKind::kBuildAnti, JoinKind::kLeftOuter,
    JoinKind::kRightOuter, JoinKind::kMark,
};

// The issue's floor: at least 100 distinct seeded workloads.
static_assert(sizeof(kConfigs) / sizeof(kConfigs[0]) *
                      sizeof(kKinds) / sizeof(kKinds[0]) >=
                  100,
              "differential sweep must cover at least 100 workloads");

IntRows MakeBuild(const DataConfig& cfg, uint64_t seed) {
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

IntRows MakeProbe(const DataConfig& cfg, uint64_t seed) {
  const uint64_t build_universe =
      std::max<uint64_t>(1, cfg.build_rows / cfg.dup_factor);
  const uint64_t universe = build_universe * cfg.universe_mult;
  Rng rng(seed);
  ZipfGenerator zipf(universe, cfg.theta);
  IntRows out;
  out.reserve(cfg.probe_rows);
  for (uint64_t i = 0; i < cfg.probe_rows; ++i) {
    std::vector<int64_t> row(cfg.probe_cols);
    row[0] = cfg.theta > 0
                 ? static_cast<int64_t>(zipf.Next(rng) - 1)
                 : static_cast<int64_t>(rng.Below(universe));
    for (int c = 1; c < cfg.probe_cols; ++c) {
      row[c] = static_cast<int64_t>(rng.Next() & 0xFFFF);
    }
    out.push_back(std::move(row));
  }
  return out;
}

RowLayout MakeLayout(const std::string& prefix, int cols) {
  std::vector<RowField> fields;
  for (int i = 0; i < cols; ++i) {
    fields.push_back(
        RowField{prefix + std::to_string(i), DataType::kInt64, 8, 0});
  }
  return RowLayout(std::move(fields));
}

RowLayout MakeOutputLayout(JoinKind kind, int build_cols, int probe_cols) {
  std::vector<RowField> fields;
  for (int i = 0; i < build_cols; ++i) {
    fields.push_back(RowField{"b" + std::to_string(i), DataType::kInt64, 8, 0});
  }
  for (int i = 0; i < probe_cols; ++i) {
    fields.push_back(RowField{"p" + std::to_string(i), DataType::kInt64, 8, 0});
  }
  if (kind == JoinKind::kMark) {
    fields.push_back(RowField{"mark", DataType::kInt64, 8, 0});
  }
  return RowLayout(std::move(fields));
}

// Runs one join through real pipelines (the join_test.cc harness generalized
// to arbitrary column counts) and returns sorted output rows.
// `metrics_out`, when non-null, receives the radix join's metrics.
IntRows RunJoin(JoinStrategy strategy, JoinKind kind, const IntRows& build,
                const IntRows& probe, int build_cols, int probe_cols,
                int threads, JoinMetrics* metrics_out = nullptr,
                int bits1 = -1, int bits2 = -1) {
  RowLayout build_layout = MakeLayout("b", build_cols);
  RowLayout probe_layout = MakeLayout("p", probe_cols);
  RowLayout out_layout = MakeOutputLayout(kind, build_cols, probe_cols);

  JoinProjection projection;
  projection.output = &out_layout;
  projection.build = &build_layout;
  projection.probe = &probe_layout;
  for (int i = 0; i < build_cols; ++i) projection.from_build.push_back({i, i});
  for (int i = 0; i < probe_cols; ++i) {
    projection.from_probe.push_back({build_cols + i, i});
  }
  if (kind == JoinKind::kMark) {
    projection.mark_field = build_cols + probe_cols;
  }

  ThreadPool pool(threads);
  ExecContext exec(&pool);
  IntRowsSource build_src(&build_layout, &build);
  IntRowsSource probe_src(&probe_layout, &probe);
  IntCollectSink sink(&out_layout);

  if (strategy == JoinStrategy::kBHJ) {
    HashJoin join(kind, &build_layout, {0}, &probe_layout, {0}, projection);
    HashJoinBuildSink build_sink(&join);
    HashJoinProbe probe_op(&join);
    Pipeline build_pipe;
    build_pipe.set_source(&build_src);
    build_pipe.AddOperator(&build_sink);
    build_pipe.Run(exec);
    Pipeline probe_pipe;
    probe_pipe.set_source(&probe_src);
    probe_pipe.AddOperator(&probe_op);
    probe_pipe.AddOperator(&sink);
    probe_pipe.Run(exec);
    if (EmitsBuildRows(kind)) {
      HashJoinBuildScanSource scan(&join);
      Pipeline scan_pipe;
      scan_pipe.set_source(&scan);
      scan_pipe.AddOperator(&sink);
      scan_pipe.Run(exec);
    }
  } else {
    RadixJoin::Options options;
    options.strategy = strategy;
    options.expected_build_tuples = build.size() | 1;
    options.num_threads = threads;
    options.bits1 = bits1;
    options.bits2 = bits2;
    RadixJoin join(kind, &build_layout, {0}, &probe_layout, {0}, projection,
                   options);
    RadixBuildSink build_sink(&join);
    RadixProbeSink probe_sink(&join);
    PartitionJoinSource join_src(&join);
    Pipeline build_pipe;
    build_pipe.set_source(&build_src);
    build_pipe.AddOperator(&build_sink);
    build_pipe.Run(exec);
    Pipeline probe_pipe;
    probe_pipe.set_source(&probe_src);
    probe_pipe.AddOperator(&probe_sink);
    probe_pipe.Run(exec);
    Pipeline join_pipe;
    join_pipe.set_source(&join_src);
    join_pipe.AddOperator(&sink);
    join_pipe.Run(exec);
    if (metrics_out != nullptr) *metrics_out = join.CollectMetrics();
  }
  return sink.SortedRows();
}

class JoinDifferentialTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(JoinDifferentialTest, AllStrategiesMatchReference) {
  const JoinKind kind = GetParam();
  const JoinStrategy strategies[] = {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                                     JoinStrategy::kBRJ};
  uint64_t seed = 1000 + static_cast<uint64_t>(kind) * 131;
  size_t idx = 0;
  for (const DataConfig& cfg : kConfigs) {
    SCOPED_TRACE(std::string("config=") + cfg.name);
    IntRows build = MakeBuild(cfg, seed + idx * 2);
    IntRows probe = MakeProbe(cfg, seed + idx * 2 + 1);
    IntRows expected =
        ReferenceJoin(build, probe, 0, kind, cfg.build_cols, cfg.probe_cols);
    const int threads = 1 + static_cast<int>(idx % 3);
    for (JoinStrategy strategy : strategies) {
      SCOPED_TRACE(JoinStrategyName(strategy));
      IntRows actual = RunJoin(strategy, kind, build, probe, cfg.build_cols,
                               cfg.probe_cols, threads);
      ASSERT_EQ(actual.size(), expected.size());
      ASSERT_EQ(actual, expected);
    }
    ++idx;
  }
}

Table ToTable(const std::string& prefix, const IntRows& rows, int cols) {
  std::vector<ColumnDef> defs;
  for (int c = 0; c < cols; ++c) {
    defs.push_back({prefix + std::to_string(c), DataType::kInt64, 0});
  }
  Table table(prefix, Schema(std::move(defs)));
  for (const auto& row : rows) {
    for (int c = 0; c < cols; ++c) table.column(c).AppendInt64(row[c]);
    table.FinishRow();
  }
  return table;
}

// A bare count(*) over the join projects no column, so every pair and
// build-only row travels at stride 0 and inner and left-outer probes only
// count their matches; the right-outer BHJ's pair buffers must still count
// the matches. The second build repeats one key 3000 times, so a probe of it
// matches more than one output batch and the count-only walk drains its
// match vector mid-walk, in the BHJ's chain walk and the radix join's
// bucket chains alike.
TEST_P(JoinDifferentialTest, CountStarWithoutOutputColumnsMatchesReference) {
  const JoinKind kind = GetParam();
  const DataConfig& cfg = kConfigs[0];
  const uint64_t seed = 9000 + static_cast<uint64_t>(kind) * 131;
  struct Case {
    const char* name;
    IntRows build;
    IntRows probe;
  };
  std::vector<Case> cases;
  cases.push_back({"base", MakeBuild(cfg, seed), MakeProbe(cfg, seed + 1)});
  Rng rng(seed + 2);
  Case hot{"hot_key", {}, {}};
  for (int i = 0; i < 3000; ++i) {
    hot.build.push_back({7, static_cast<int64_t>(rng.Next() & 0xFFFF)});
  }
  for (int64_t k = 0; k < 1000; ++k) {
    hot.build.push_back({100 + k, static_cast<int64_t>(rng.Next() & 0xFFFF)});
  }
  for (size_t i = hot.build.size() - 1; i > 0; --i) {
    std::swap(hot.build[i], hot.build[rng.Below(i + 1)]);
  }
  for (int i = 0; i < 2000; ++i) {
    const int64_t key = rng.Below(20) == 0
                            ? 7
                            : static_cast<int64_t>(rng.Below(1500));
    hot.probe.push_back({key, static_cast<int64_t>(rng.Next() & 0xFFFF)});
  }
  cases.push_back(std::move(hot));
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto expected = static_cast<int64_t>(
        ReferenceJoin(c.build, c.probe, 0, kind, 2, 2).size());
    Table b = ToTable("b", c.build, 2);
    Table p = ToTable("p", c.probe, 2);
    auto plan = Aggregate(
        Join(ScanTable(&b), ScanTable(&p), {{"b0", "p0"}}, kind,
             kind == JoinKind::kMark ? "mark" : ""),
        {}, {AggDef::CountStar("n")});
    for (JoinStrategy strategy :
         {JoinStrategy::kBHJ, JoinStrategy::kRJ, JoinStrategy::kBRJ}) {
      for (int threads : {1, 2, 4}) {
        SCOPED_TRACE(std::string(JoinStrategyName(strategy)) +
                     " threads=" + std::to_string(threads));
        ExecOptions options;
        options.join_strategy = strategy;
        options.num_threads = threads;
        options.rewrite.enabled = 0;  // keep `b` on the build side
        QueryResult result = ExecuteQuery(*plan, options);
        ASSERT_EQ(result.num_rows(), 1u);
        EXPECT_EQ(std::get<int64_t>(result.rows[0][0]), expected);
      }
    }
  }
}

// BHJ chains longer than a probe batch: one build key 3000 times plus a
// unique tail, probed with a mix of the hot key, tail keys and absent keys.
// The lanes of one probe batch then leave the level-wise chain walk in
// different rounds: a hot lane walks 3000 entries (or stops at its first
// match for the existence-only kinds), a tail lane one or two.
TEST_P(JoinDifferentialTest, BhjLongChainMatchesReference) {
  const JoinKind kind = GetParam();
  constexpr int64_t kHotKey = 7;
  Rng rng(4200 + static_cast<uint64_t>(kind));
  IntRows build;
  for (int i = 0; i < 3000; ++i) {
    build.push_back({kHotKey, static_cast<int64_t>(rng.Next() & 0xFFFF)});
  }
  for (int64_t k = 0; k < 2000; ++k) {
    build.push_back({1000 + k, static_cast<int64_t>(rng.Next() & 0xFFFF)});
  }
  // Interleave hot and tail rows so every worker buffer holds both.
  for (size_t i = build.size() - 1; i > 0; --i) {
    std::swap(build[i], build[rng.Below(i + 1)]);
  }
  IntRows probe;
  for (int i = 0; i < 3000; ++i) {
    // ~2% hot, the rest over the tail's range widened by a quarter on each
    // side, so some probe keys are absent.
    const int64_t key = rng.Below(50) == 0
                            ? kHotKey
                            : 500 + static_cast<int64_t>(rng.Below(3000));
    probe.push_back({key, static_cast<int64_t>(rng.Next() & 0xFFFF)});
  }
  const IntRows expected = ReferenceJoin(build, probe, 0, kind, 2, 2);
  for (int threads : {1, 2, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    const IntRows actual =
        RunJoin(JoinStrategy::kBHJ, kind, build, probe, 2, 2, threads);
    if (kind == JoinKind::kMark) {
      // One row per probe tuple, however many entries its chain matches.
      EXPECT_EQ(actual.size(), probe.size());
    }
    ASSERT_EQ(actual.size(), expected.size());
    ASSERT_EQ(actual, expected);
  }
}

// Duplicate-heavy radix join: a Zipf 1.0 build piles most tuples of a
// partition into a few keys, so the partition join's bucket chains run long
// and the probes of every other key must not walk them. RJ and BRJ, with
// single-pass partitions read in place (automatic bits, and 3+0 bits) and
// two passes (2+2 bits, one span per partition).
TEST_P(JoinDifferentialTest, RadixZipfBuildMatchesReference) {
  const JoinKind kind = GetParam();
  Rng rng(5100 + static_cast<uint64_t>(kind));
  ZipfGenerator zipf(800, 1.0);
  IntRows build;
  for (int i = 0; i < 3000; ++i) {
    build.push_back({static_cast<int64_t>(zipf.Next(rng) - 1),
                     static_cast<int64_t>(rng.Next() & 0xFFFF)});
  }
  IntRows probe;
  for (int i = 0; i < 3000; ++i) {
    // Keys 0..999: the hot keys, the long tail, and absent keys above 799.
    probe.push_back({static_cast<int64_t>(rng.Below(1000)),
                     static_cast<int64_t>(rng.Next() & 0xFFFF)});
  }
  const IntRows expected = ReferenceJoin(build, probe, 0, kind, 2, 2);
  const int bits[][2] = {{-1, -1}, {3, 0}, {2, 2}};
  for (JoinStrategy strategy : {JoinStrategy::kRJ, JoinStrategy::kBRJ}) {
    for (const auto& b : bits) {
      for (int threads : {1, 4}) {
        SCOPED_TRACE(std::string(JoinStrategyName(strategy)) + " bits=" +
                     std::to_string(b[0]) + "+" + std::to_string(b[1]) +
                     " threads=" + std::to_string(threads));
        const IntRows actual = RunJoin(strategy, kind, build, probe, 2, 2,
                                       threads, nullptr, b[0], b[1]);
        ASSERT_EQ(actual.size(), expected.size());
        ASSERT_EQ(actual, expected);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, JoinDifferentialTest, ::testing::ValuesIn(kKinds),
    [](const ::testing::TestParamInfo<JoinKind>& info) {
      std::string name = JoinKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---- Skewed slice: build-side Zipf and heavy-hitter workloads ------------
//
// The sweep above skews only the probe keys; here the *build* side is
// skewed, which is what breaks partitioned joins (one partition absorbs the
// hot key's entire chain). kAuto declines to partition such builds, but a
// forced RJ/BRJ must still stay bit-identical to the nested-loop oracle, as
// must the BHJ. Run under ctest label `skew`.

struct SkewDataConfig {
  const char* name;
  uint64_t build_rows;
  uint64_t probe_rows;
  double build_theta;     // Zipf exponent of build keys (0 = heavy hitter)
  double heavy_fraction;  // single-key share when build_theta == 0
  uint64_t universe;      // key universe of the skewed build side
  double probe_theta;     // Zipf exponent of probe keys (0 = uniform)
  int build_cols;
  int probe_cols;
};

const SkewDataConfig kSkewConfigs[] = {
    // The ISSUE's Zipf ladder on the build side, s in {0.5, 1.0, 1.5}.
    {"build_zipf_05", 2000, 4000, 0.5, 0.0, 500, 0.0, 2, 2},
    {"build_zipf_10", 2000, 4000, 1.0, 0.0, 500, 0.0, 2, 2},
    {"build_zipf_15", 2000, 4000, 1.5, 0.0, 500, 0.0, 2, 2},
    // Single heavy hitter absorbing a fixed share of the build side.
    {"heavy_quarter", 2000, 4000, 0.0, 0.25, 500, 0.0, 2, 2},
    {"heavy_half", 2000, 4000, 0.0, 0.5, 500, 0.0, 2, 2},
    {"heavy_nine_tenths", 2000, 4000, 0.0, 0.9, 500, 0.0, 2, 2},
    // Correlated skew: both sides hammer the same hot keys.
    {"both_sides_zipf", 2000, 4000, 1.0, 0.0, 500, 1.0, 2, 2},
    // Wide payloads: fewer tuples per partition byte.
    {"skew_wide", 1000, 2000, 1.0, 0.0, 250, 0.0, 4, 3},
};

IntRows MakeSkewBuild(const SkewDataConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  ZipfGenerator zipf(cfg.universe, cfg.build_theta);
  const uint64_t heavy_threshold =
      static_cast<uint64_t>(cfg.heavy_fraction * 1000000.0);
  IntRows out;
  out.reserve(cfg.build_rows);
  for (uint64_t i = 0; i < cfg.build_rows; ++i) {
    std::vector<int64_t> row(cfg.build_cols);
    if (cfg.build_theta > 0) {
      row[0] = static_cast<int64_t>(zipf.Next(rng) - 1);
    } else {
      row[0] = rng.Below(1000000) < heavy_threshold
                   ? int64_t{0}
                   : static_cast<int64_t>(1 + rng.Below(cfg.universe));
    }
    for (int c = 1; c < cfg.build_cols; ++c) {
      row[c] = static_cast<int64_t>(rng.Next() & 0xFFFF);
    }
    out.push_back(std::move(row));
  }
  return out;
}

IntRows MakeSkewProbe(const SkewDataConfig& cfg, uint64_t seed) {
  Rng rng(seed);
  // Probe universe is twice the build universe, so outer/anti kinds see
  // non-matching tuples too.
  const uint64_t universe = cfg.universe * 2;
  ZipfGenerator zipf(universe, cfg.probe_theta);
  IntRows out;
  out.reserve(cfg.probe_rows);
  for (uint64_t i = 0; i < cfg.probe_rows; ++i) {
    std::vector<int64_t> row(cfg.probe_cols);
    row[0] = cfg.probe_theta > 0
                 ? static_cast<int64_t>(zipf.Next(rng) - 1)
                 : static_cast<int64_t>(rng.Below(universe));
    for (int c = 1; c < cfg.probe_cols; ++c) {
      row[c] = static_cast<int64_t>(rng.Next() & 0xFFFF);
    }
    out.push_back(std::move(row));
  }
  return out;
}

class SkewDifferentialTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(SkewDifferentialTest, AllStrategiesMatchReferenceOnSkewedBuilds) {
  const JoinKind kind = GetParam();
  const JoinStrategy strategies[] = {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                                     JoinStrategy::kBRJ};
  uint64_t seed = 7000 + static_cast<uint64_t>(kind) * 131;
  size_t idx = 0;
  for (const SkewDataConfig& cfg : kSkewConfigs) {
    SCOPED_TRACE(std::string("config=") + cfg.name);
    IntRows build = MakeSkewBuild(cfg, seed + idx * 2);
    IntRows probe = MakeSkewProbe(cfg, seed + idx * 2 + 1);
    IntRows expected =
        ReferenceJoin(build, probe, 0, kind, cfg.build_cols, cfg.probe_cols);
    const int threads = 1 + static_cast<int>(idx % 3);
    for (JoinStrategy strategy : strategies) {
      SCOPED_TRACE(JoinStrategyName(strategy));
      IntRows actual = RunJoin(strategy, kind, build, probe, cfg.build_cols,
                               cfg.probe_cols, threads);
      ASSERT_EQ(actual, expected);
    }
    ++idx;
  }
}

// Skew plus spill: RJ and BRJ on the half-heavy build under a 16 KiB
// budget evict pre-partitions, so skewed partitions join through the
// out-of-core pair loop, and must still match the reference.
TEST_P(SkewDifferentialTest, SkewedJoinSpillsUnderTinyBudget) {
  const JoinKind kind = GetParam();
  const SkewDataConfig& cfg = kSkewConfigs[4];  // heavy_half
  const uint64_t seed = 8100 + static_cast<uint64_t>(kind) * 17;
  IntRows build = MakeSkewBuild(cfg, seed);
  IntRows probe = MakeSkewProbe(cfg, seed + 1);
  IntRows expected =
      ReferenceJoin(build, probe, 0, kind, cfg.build_cols, cfg.probe_cols);

  for (JoinStrategy strategy : {JoinStrategy::kRJ, JoinStrategy::kBRJ}) {
    SCOPED_TRACE(JoinStrategyName(strategy));
    IntRows actual;
    JoinMetrics metrics;
    {
      ScopedMemoryBudget scoped(16 * 1024);
      actual = RunJoin(strategy, kind, build, probe, cfg.build_cols,
                       cfg.probe_cols, /*threads=*/2, &metrics);
    }
    ASSERT_EQ(actual, expected);
    EXPECT_GT(metrics.spill.partitions_spilled, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SkewDifferentialTest, ::testing::ValuesIn(kKinds),
    [](const ::testing::TestParamInfo<JoinKind>& info) {
      std::string name = JoinKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pjoin
