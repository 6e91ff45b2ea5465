// Cost-based join-strategy advisor: "to partition, or not to partition",
// answered per join at plan-lowering time (the paper's Section 5 decision,
// turned into a cost model instead of a manual knob).
//
// For every join node the advisor scores
//   * BHJ  — materialize the build side once, probe fully pipelined; pays
//            cache and DRAM misses per probe tuple once the table outgrows
//            the caches,
//   * RJ   — partition both sides (pass-1 scatter, a second pass for huge
//            builds) so every per-partition table fits L2; pays the
//            partitioning on the probe side and breaks the probe pipeline,
//   * BRJ  — RJ plus a Bloom filter built from the build keys that prunes
//            non-joining probe tuples *before* they are partitioned,
// in one currency, single-threaded nanoseconds per tuple of each building
// block measured on this host (engine/cost_profile.h), and picks the
// cheapest, with the paper's asymmetry built in: partitioning must win by a
// clear margin before it is chosen, because the BHJ's downside is bounded
// while the RJ's is not (Section 5.2, "when in doubt, do not partition").
//
// This is the only place partition-or-not is decided: once per join, before
// the join's operators exist. Nothing re-decides at runtime; a misestimated
// build runs the strategy it was given. An undersold radix join keeps the
// fan-out sized for its estimate (larger partitions, same results) and
// under a memory budget spills pass-1 pre-partitions; a BHJ sizes its
// directory from the build it counts either way. The "build fits L2" rule
// leans toward BHJ, whose downside is bounded, because the estimates it
// reads mostly overshoot.
#ifndef PJOIN_ENGINE_ADVISOR_H_
#define PJOIN_ENGINE_ADVISOR_H_

#include <cstdint>
#include <map>
#include <vector>

#include "engine/cost_profile.h"
#include "engine/plan.h"

namespace pjoin {

struct AdvisorOptions {
  // L2 override for the "build fits L2" rule and the partition sizing; 0 =
  // the host's value from GetCpuInfo().
  uint64_t l2_bytes = 0;

  // Per-tuple costs the model prices strategies with; null = the process's
  // calibrated profile. Tests and goldens pass CostProfile::Reference() so
  // their decisions do not depend on the host.
  const CostProfile* profile = nullptr;

  // A partitioned strategy is chosen only when its modeled cost is below
  // margin * cost(BHJ) — the "when in doubt, do not partition" asymmetry.
  double partition_margin = 0.9;

  // Memory budget for the I/O-aware cost term; 0 = read the process-wide
  // governor's budget (PJOIN_MEMORY_BUDGET). When the modeled build state
  // exceeds the budget the advisor adds spill I/O to each strategy — the
  // radix join spills its already-formed pass-1 partitions, while the BHJ
  // pays an extra re-pack pass on top, so inevitable spilling tilts the
  // decision toward partitioning (the NOCAP observation).
  uint64_t memory_budget = 0;

  // Fault injection for misestimate tests and bench/ext_misestimate:
  // multiplies every join's build-side cardinality estimate inside the
  // advisor walk, compounding up the join chain. The default sentinel
  // (<= 0) reads PJOIN_EST_SCALE, which defaults to 1 (no corruption).
  double est_scale = 0.0;
};

// Skew estimate of a join's build key: the share of its base column's most
// frequent value, read from that column's statistics histogram.
struct SkewEstimate {
  uint64_t sample_rows = 0;  // rows the histogram was built from
  double top_share = 0.0;    // share of the hottest key in those rows
};

// One join's scored decision. Costs are single-threaded nanoseconds; a
// decision settled by a hard rule ("build fits L2", "probe smaller than
// build") is not costed (all three stay 0).
struct JoinDecision {
  JoinStrategy choice = JoinStrategy::kBHJ;
  uint64_t est_build_rows = 0;
  uint64_t est_probe_rows = 0;
  uint32_t build_width = 0;  // materialized build row bytes
  uint32_t probe_width = 0;  // probe row bytes entering the join
  int probe_depth = 0;       // joins below the probe side (pipeline depth)
  uint64_t est_ht_bytes = 0; // BHJ hash table: entries + directory
  double est_pass_rate = 1.0;  // modeled Bloom pass rate (BRJ)
  double cost_bhj = 0;
  double cost_rj = 0;
  double cost_brj = 0;
  // Wall time this decision spent calibrating the profile (first decisions
  // of a size class only).
  double calibration_ms = 0;
  bool spill_expected = false;  // budgeted run: some strategy must spill
  // Skew estimate (populated when the build key's histogram informed the
  // costs).
  bool skew_sampled = false;
  uint64_t skew_sample_rows = 0;
  double est_top_share = 0;        // histogram share of the hottest key
  double est_max_partition_share = 0;  // max(hottest key, even 1/P spread)
  bool skew_overflow = false;  // share overflows one margin-scaled partition
  const char* reason = "";  // static string, stable across runs
};

class JoinAdvisor {
 public:
  // Walks the plan exactly like the executor's lowering (required-column
  // propagation, build side before probe side) and scores every join.
  // Returned decisions are keyed by the executor's post-order join id, so
  // the executor and EXPLAIN resolve kAuto identically by construction.
  static std::map<int, JoinDecision> AdvisePlan(const PlanNode& root,
                                                const AdvisorOptions& options);

  // The cost model proper, exposed for decision-surface tests.
  // `build_base_rows` is the unfiltered cardinality of the build subtree's
  // base table; est_build / base bounds the Bloom filter's pass rate under
  // the FK-containment assumption. `probe_in_range` is the share of probe
  // keys inside the build key's [min, max] (from the column histograms), a
  // second bound on it. `skew`, when non-null, is the build key's
  // hottest-value share; a share that overflows one partition picks BHJ.
  static JoinDecision Decide(JoinKind kind, uint64_t est_build_rows,
                             uint64_t build_base_rows,
                             uint64_t est_probe_rows, uint32_t build_width,
                             uint32_t probe_width, int probe_depth,
                             const AdvisorOptions& options,
                             const SkewEstimate* skew = nullptr,
                             double probe_in_range = 1.0);

  // Largest build-side share one final partition can absorb before its
  // table overflows the margin-scaled L2 target. Shares above it
  // mark the decision skew_overflow, which picks BHJ.
  static double PartitionOverflowShare(uint64_t est_build_rows,
                                       uint32_t build_width,
                                       const AdvisorOptions& options);

  // Resolved estimate-corruption factor: options.est_scale, or
  // PJOIN_EST_SCALE when the option holds the sentinel.
  static double ResolvedEstimateScale(const AdvisorOptions& options);
};

}  // namespace pjoin

#endif  // PJOIN_ENGINE_ADVISOR_H_
