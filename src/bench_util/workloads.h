// Prior-work microbenchmark workloads (Table 1) and the Section 5.4
// variants that isolate individual workload factors.
//
// All sizes are divided by PJOIN_SCALE (default 16), preserving every ratio:
// workload A stays 1:16 build:probe with dense shuffled build keys; workload
// B stays 1:1 with 4-byte columns. The generated tables plug straight into
// the engine via the plan API, reproducing the paper's setup of creating the
// relations with CREATE TABLE + SQL queries, no indexes, no preprocessing.
#ifndef PJOIN_BENCH_UTIL_WORKLOADS_H_
#define PJOIN_BENCH_UTIL_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/executor.h"
#include "engine/plan.h"
#include "storage/table.h"

namespace pjoin {

struct MicroWorkload {
  Table build;  // columns: b_key [, b_pay]
  Table probe;  // columns: p_key [, p_pay | p_pay1..p_payN]
  uint64_t build_tuples = 0;
  uint64_t probe_tuples = 0;

  // Star-schema extension for the pipeline-depth study: `dims[i]` has
  // columns d<i>_key (a permutation of the build key universe) and d<i>_pay;
  // the probe table gains one foreign-key column per dimension.
  std::vector<std::unique_ptr<Table>> dims;
};

// Workload A (Balkesen et al.): 8 B keys + 8 B payload, 16 Mi build tuples
// joined with 256 Mi probe tuples (256 MiB vs 4096 MiB), scaled by
// `scale_divisor`. Build keys are a dense shuffled permutation of 1..N;
// probe keys reference them uniformly (foreign-key join, 100% match).
MicroWorkload MakeWorkloadA(int64_t scale_divisor);

// Workload B: 4 B keys + 4 B payload, 128 M tuples on both sides (977 MiB
// each), scaled by `scale_divisor`.
MicroWorkload MakeWorkloadB(int64_t scale_divisor);

// Section 5.4.1: workload A with only `match_fraction` of the probe-side
// foreign keys finding a join partner (probe size unchanged).
MicroWorkload MakeSelectivityWorkload(int64_t scale_divisor,
                                      double match_fraction);

// Section 5.4.2: workload A with `payload_cols` extra 8 B probe columns of
// randomized integers (probe tuple = key + payloads).
MicroWorkload MakePayloadWorkload(int64_t scale_divisor, int payload_cols,
                                  double match_fraction = 1.0);

// Section 5.4.5: workload A or B with Zipf-distributed probe foreign keys.
MicroWorkload MakeSkewWorkload(int64_t scale_divisor, double zipf_theta,
                               bool workload_b = false);

// Build-side skew for the skew study (DESIGN.md §12): build keys are drawn
// Zipf(theta) from a universe of build_tuples/4 values (so hot keys repeat
// heavily on the side that becomes hash-table entries and partitions), and
// the probe references the same universe uniformly. theta in {0.5, 1.0, 1.5}
// spans mild to catastrophic skew.
MicroWorkload MakeBuildSkewWorkload(int64_t scale_divisor, double zipf_theta);

// Degenerate build skew: one heavy-hitter key absorbs `heavy_fraction` of
// the build side; the remaining keys are a dense distinct tail. The probe
// references the universe uniformly, so the heavy key's partition holds
// heavy_fraction of the build no matter how many radix bits are spent.
MicroWorkload MakeHeavyHitterWorkload(int64_t scale_divisor,
                                      double heavy_fraction);

// Section 5.4.4: star schema of `depth` dimension tables; the probe (fact)
// table carries one key column per dimension, each with 100% selectivity.
MicroWorkload MakeStarWorkload(int64_t scale_divisor, int depth);

// Section 5.4.6/5.4.7: custom build/probe tuple counts (8 B key + 8 B pay).
MicroWorkload MakeSizedWorkload(uint64_t build_tuples, uint64_t probe_tuples);

// --- query builders ---------------------------------------------------------

// SELECT count(*) FROM probe r, build s WHERE r.key = s.key  (Section 5.2).
std::unique_ptr<PlanNode> CountJoinPlan(const MicroWorkload& workload);

// SELECT sum(s.p1) FROM build r, probe s WHERE r.k = s.k  (Section 5.4.2).
std::unique_ptr<PlanNode> SumPayloadPlan(const MicroWorkload& workload,
                                         int payload_col = 1);

// Sums every probe payload column, so the full probe tuple (key + all
// payloads) flows through — and, for the radix joins, is materialized into —
// the join. This is the payload-size query of Section 5.4.2: the paper's
// tuples are "at most 80 B wide" including the stored hash value.
std::unique_ptr<PlanNode> SumAllPayloadsPlan(const MicroWorkload& workload);

// The star-schema chain query of Section 5.4.4 (one long pipeline).
std::unique_ptr<PlanNode> StarJoinPlan(const MicroWorkload& workload);

}  // namespace pjoin

#endif  // PJOIN_BENCH_UTIL_WORKLOADS_H_
