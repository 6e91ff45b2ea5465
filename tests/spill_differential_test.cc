// Out-of-core differential testing: a slice of the differential workload
// sweep re-run under a tiny memory budget, asserting (a) row-for-row
// equality with the unconstrained run for every strategy and join kind, and
// (b) that the constrained run actually spilled — otherwise the test would
// pass vacuously.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "exec/pipeline.h"
#include "exec/thread_pool.h"
#include "join/hash_join.h"
#include "join/join_types.h"
#include "join/radix_join.h"
#include "spill/memory_governor.h"
#include "tests/test_util.h"
#include "util/rng.h"

namespace pjoin {
namespace {

// Small enough that every strategy must evict partitions for these shapes
// (the staged build side alone is a few pages), large enough that the
// resident half of the hybrid is non-trivial.
constexpr uint64_t kTinyBudget = 16 * 1024;

struct DataConfig {
  const char* name;
  uint64_t build_rows;
  uint64_t probe_rows;
  uint64_t dup_factor;
  uint64_t universe_mult;
  int build_cols;
  int probe_cols;
};

// Slice of the join_differential_test sweep: base shape, heavy duplicates
// (recursion pressure), wide build rows, selective probe, large ratio.
const DataConfig kConfigs[] = {
    {"base", 1000, 4000, 2, 2, 2, 2},
    {"dup_16", 1000, 4000, 16, 2, 2, 2},
    {"pay_build_wide", 1000, 4000, 2, 2, 3, 2},
    {"sel_tenth", 1000, 4000, 2, 10, 2, 2},
    {"ratio_1_8", 500, 4000, 2, 2, 2, 2},
};

const JoinKind kKinds[] = {
    JoinKind::kInner,      JoinKind::kProbeSemi, JoinKind::kProbeAnti,
    JoinKind::kBuildSemi,  JoinKind::kBuildAnti, JoinKind::kLeftOuter,
    JoinKind::kRightOuter, JoinKind::kMark,
};

IntRows MakeRows(uint64_t rows, uint64_t universe, int cols, uint64_t seed) {
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

struct RunResult {
  IntRows rows;
  SpillMetrics spill;
};

// The join_differential_test harness, additionally reporting the join's
// spill record so callers can assert the constrained run went out-of-core.
RunResult RunJoin(JoinStrategy strategy, JoinKind kind, const IntRows& build,
                  const IntRows& probe, int build_cols, int probe_cols,
                  int threads) {
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

  RunResult result;
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
    result.spill = join.CollectMetrics().spill;
  } else {
    RadixJoin::Options options;
    options.strategy = strategy;
    options.expected_build_tuples = build.size() | 1;
    options.num_threads = threads;
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
    result.spill = join.CollectMetrics().spill;
  }
  result.rows = sink.SortedRows();
  return result;
}

class SpillDifferentialTest : public ::testing::TestWithParam<JoinKind> {};

TEST_P(SpillDifferentialTest, BudgetedRunsMatchUnconstrained) {
  const JoinKind kind = GetParam();
  const JoinStrategy strategies[] = {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                                     JoinStrategy::kBRJ};
  uint64_t seed = 7000 + static_cast<uint64_t>(kind) * 97;
  size_t idx = 0;
  for (const DataConfig& cfg : kConfigs) {
    SCOPED_TRACE(std::string("config=") + cfg.name);
    const uint64_t universe =
        std::max<uint64_t>(1, cfg.build_rows / cfg.dup_factor);
    IntRows build = MakeRows(cfg.build_rows, universe, cfg.build_cols,
                             seed + idx * 2);
    IntRows probe = MakeRows(cfg.probe_rows, universe * cfg.universe_mult,
                             cfg.probe_cols, seed + idx * 2 + 1);
    const int threads = 1 + static_cast<int>(idx % 3);
    for (JoinStrategy strategy : strategies) {
      SCOPED_TRACE(JoinStrategyName(strategy));
      RunResult unconstrained = RunJoin(strategy, kind, build, probe,
                                        cfg.build_cols, cfg.probe_cols,
                                        threads);
      ASSERT_EQ(unconstrained.spill.partitions_spilled, 0u)
          << "unbudgeted run must stay in memory";
      RunResult budgeted;
      {
        ScopedMemoryBudget scoped(kTinyBudget);
        budgeted = RunJoin(strategy, kind, build, probe, cfg.build_cols,
                           cfg.probe_cols, threads);
      }
      ASSERT_GT(budgeted.spill.partitions_spilled, 0u)
          << "tiny budget must force a spill";
      EXPECT_GT(budgeted.spill.bytes_written, 0u);
      EXPECT_GT(budgeted.spill.bytes_read, 0u);
      EXPECT_GT(budgeted.spill.build_tuples_spilled, 0u);
      ASSERT_EQ(budgeted.rows.size(), unconstrained.rows.size());
      ASSERT_EQ(budgeted.rows, unconstrained.rows);
    }
    ++idx;
  }
}

// Recursion: duplicate-heavy single-key build forces every tuple into one
// partition; the pair must re-partition (and eventually join in memory at
// the depth bound) while still producing exact results.
TEST(SpillRecursion, SingleKeyPartitionTerminates) {
  const int kBuildRows = 2000;
  IntRows build, probe;
  for (int i = 0; i < kBuildRows; ++i) build.push_back({7, i});
  for (int i = 0; i < 100; ++i) probe.push_back({i % 20, 1000 + i});
  IntRows expected = ReferenceJoin(build, probe, 0, JoinKind::kInner, 2, 2);
  for (JoinStrategy strategy : {JoinStrategy::kBHJ, JoinStrategy::kRJ}) {
    SCOPED_TRACE(JoinStrategyName(strategy));
    RunResult budgeted;
    {
      ScopedMemoryBudget scoped(kTinyBudget);
      budgeted = RunJoin(strategy, JoinKind::kInner, build, probe, 2, 2, 2);
    }
    ASSERT_GT(budgeted.spill.partitions_spilled, 0u);
    EXPECT_GE(budgeted.spill.max_recursion_depth, 1u);
    ASSERT_EQ(budgeted.rows, expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SpillDifferentialTest, ::testing::ValuesIn(kKinds),
    [](const ::testing::TestParamInfo<JoinKind>& info) {
      std::string name = JoinKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace pjoin
