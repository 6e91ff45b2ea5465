#include "engine/advisor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>

#include "engine/coded_keys.h"
#include "join/radix_join.h"
#include "partition/radix_partitioner.h"
#include "spill/memory_governor.h"
#include "stats/column_catalog.h"
#include "util/check.h"
#include "util/cpu_info.h"
#include "util/env.h"

namespace pjoin {

namespace {

// --- Cost model --------------------------------------------------------------
// Costs are single-threaded nanoseconds: tuple counts times the per-tuple
// costs of the building blocks in the CostProfile.

// Pipeline-depth penalty per join below the probe side: partitioning breaks
// the probe pipeline, re-materializing work the joins below already paid for.
constexpr double kDepthPenalty = 0.05;
// False-positive allowance added to the modeled pass rate.
constexpr double kBloomFpAllowance = 0.05;
// Above this modeled pass rate a winning BRJ is demoted to the adaptive
// variant: the filter is likely useless and should be able to switch off.
constexpr double kAdaptivePassRate = 0.8;
// Cost of one byte of spill I/O relative to one byte of pass-1 scatter.
// Buffered sequential temp-file I/O is slower than a memory pass but not
// catastrophically so; the factor applies to write + re-read of every
// spilled byte.
constexpr double kSpillIoFactor = 4.0;
// Overestimate the "build fits L2" rule forgives: a build whose estimated
// table is up to this many times L2 still picks BHJ. The estimates the rule
// reads mostly overshoot (the eight costed TPC-H SF 0.1 builds were
// overestimated 2-400x), and on a cache-resident table the BHJ's probe is
// as fast as the partition join's.
constexpr double kL2OverestimateAllowance = 4.0;

// Stride of a [hash:8B][row] partition tuple as the radix partitioner pads
// it (power of two up to 64 bytes for write-combine buffers).
uint32_t PaddedPartitionStride(uint32_t row_width) {
  uint32_t s = 8 + row_width;
  if (s > 64) return (s + 7u) & ~7u;
  uint32_t p = 1;
  while (p < s) p <<= 1;
  return p;
}

// Share of the build side an evenly-loaded final partition would hold,
// mirroring ChooseRadixBits: fan-out targets half of L2 per partition
// (tuple + table-slot bytes), clamped to 16 total bits.
double EvenPartitionShare(uint64_t est_build_rows, uint32_t build_width,
                          uint64_t l2) {
  const double per_tuple = PaddedPartitionStride(build_width) + 24.0;
  const double budget = std::max(1.0, static_cast<double>(l2) / 2.0);
  const double want =
      std::max(1.0, static_cast<double>(est_build_rows) * per_tuple / budget);
  int bits = 1;
  while (bits < 16 && (1u << bits) < want) ++bits;
  return 1.0 / static_cast<double>(1u << bits);
}

// --- Plan walk -------------------------------------------------------------
// Mirrors the executor's lowering: the same required-column propagation and
// the same post-order join numbering, so decisions line up with
// ExecOptions::join_overrides and QueryMetrics join ids by construction.
// (Late materialization is not modeled; its narrower widths only make the
// non-partitioned side cheaper, which the margin rule already favors.)

struct WalkContext {
  const AdvisorOptions* options = nullptr;
  std::map<std::string, uint32_t> width;  // column name -> byte width
  std::map<int, JoinDecision>* out = nullptr;
  int next_join_id = 0;
  double est_scale = 1.0;  // resolved fault-injection factor
};

// The statistics histogram of `column`'s base column under `side`; null for
// computed keys, non-numeric columns, and empty tables.
const EqualHeightHistogram* KeyHistogram(const PlanNode& side,
                                         const std::string& column) {
  int col = -1;
  const Table* table = ResolveBaseColumn(side, column, &col);
  if (table == nullptr) return nullptr;
  const TableStats* ts = ColumnCatalog::Global().Get(*table);
  if (ts == nullptr) return nullptr;
  const EqualHeightHistogram& h = ts->columns[col].histogram;
  return h.valid() ? &h : nullptr;
}

// The skew estimate of `join`'s first build key: its base column's
// hottest-value share.
std::optional<SkewEstimate> BuildKeySkew(const PlanNode& join) {
  if (join.keys.empty()) return std::nullopt;
  const EqualHeightHistogram* h = KeyHistogram(*join.build, join.keys[0].first);
  if (h == nullptr) return std::nullopt;
  return SkewEstimate{h->sample_rows(), h->top_share()};
}

// Share of the probe key's rows inside the build key's [min, max]: probe
// keys outside it cannot join, whatever FK containment says. 1 without
// both histograms.
double ProbeKeyInRange(const PlanNode& join) {
  if (join.keys.empty()) return 1.0;
  const EqualHeightHistogram* b = KeyHistogram(*join.build, join.keys[0].first);
  const EqualHeightHistogram* p = KeyHistogram(*join.probe, join.keys[0].second);
  if (b == nullptr || p == nullptr) return 1.0;
  return p->BetweenFraction(b->min(), b->max());
}

struct SubtreeInfo {
  uint64_t est_rows = 0;   // estimated output cardinality
  uint64_t base_rows = 0;  // unfiltered base-table cardinality (probe chain)
  int joins = 0;           // joins inside the subtree
};

void CollectProvidedNames(const PlanNode& node, std::set<std::string>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      for (const auto& def : node.table->schema().columns()) {
        out->insert(def.name);
      }
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kAgg:
      CollectProvidedNames(*node.child, out);
      break;
    case PlanNode::Kind::kMap:
      CollectProvidedNames(*node.child, out);
      for (const auto& map : node.maps) out->insert(map.name);
      break;
    case PlanNode::Kind::kJoin:
      CollectProvidedNames(*node.build, out);
      CollectProvidedNames(*node.probe, out);
      if (node.join_kind == JoinKind::kMark) out->insert(node.mark_name);
      break;
  }
}

void CollectWidths(const PlanNode& node, std::map<std::string, uint32_t>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      for (const auto& def : node.table->schema().columns()) {
        (*out)[def.name] = def.width();
      }
      break;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kAgg:
      CollectWidths(*node.child, out);
      break;
    case PlanNode::Kind::kMap:
      CollectWidths(*node.child, out);
      for (const auto& map : node.maps) {
        (*out)[map.name] = TypeWidth(map.type, map.char_len);
      }
      break;
    case PlanNode::Kind::kJoin:
      CollectWidths(*node.build, out);
      CollectWidths(*node.probe, out);
      if (node.join_kind == JoinKind::kMark) (*out)[node.mark_name] = 8;
      break;
  }
}

uint32_t SumWidths(const WalkContext& ctx, const std::set<std::string>& names) {
  uint32_t w = 0;
  for (const auto& name : names) {
    auto it = ctx.width.find(name);
    if (it != ctx.width.end()) w += it->second;
  }
  return w;
}

SubtreeInfo Walk(const PlanNode& node, const std::set<std::string>& required,
                 WalkContext& ctx) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return SubtreeInfo{node.EstimateRows(), node.table->num_rows(), 0};
    case PlanNode::Kind::kFilter: {
      std::set<std::string> child_required = required;
      for (const auto& name : node.filter.inputs) child_required.insert(name);
      return Walk(*node.child, child_required, ctx);
    }
    case PlanNode::Kind::kMap: {
      std::set<std::string> child_required;
      std::set<std::string> produced;
      for (const auto& map : node.maps) produced.insert(map.name);
      for (const auto& name : required) {
        if (!produced.count(name)) child_required.insert(name);
      }
      for (const auto& map : node.maps) {
        for (const auto& name : map.inputs) child_required.insert(name);
      }
      return Walk(*node.child, child_required, ctx);
    }
    case PlanNode::Kind::kJoin: {
      std::set<std::string> build_names, probe_names;
      CollectProvidedNames(*node.build, &build_names);
      CollectProvidedNames(*node.probe, &probe_names);
      std::set<std::string> build_required, probe_required;
      for (const auto& name : required) {
        if (node.join_kind == JoinKind::kMark && name == node.mark_name) {
          continue;
        }
        if (build_names.count(name)) {
          build_required.insert(name);
        } else if (probe_names.count(name)) {
          probe_required.insert(name);
        }
      }
      for (const auto& [b, p] : node.keys) {
        build_required.insert(b);
        probe_required.insert(p);
      }
      SubtreeInfo build = Walk(*node.build, build_required, ctx);
      SubtreeInfo probe = Walk(*node.probe, probe_required, ctx);
      const int join_id = ctx.next_join_id++;
      // Fault injection (PJOIN_EST_SCALE / AdvisorOptions::est_scale):
      // corrupt the build-side estimate before costing. The corruption also
      // feeds the join-output estimate below, so it compounds up the chain
      // the way a real base-table misestimate would.
      uint64_t est_build = build.est_rows;
      if (ctx.est_scale != 1.0) {
        est_build = std::max<uint64_t>(
            1, static_cast<uint64_t>(std::llround(
                   static_cast<double>(build.est_rows) * ctx.est_scale)));
      }
      const std::optional<SkewEstimate> skew = BuildKeySkew(node);
      JoinDecision d = JoinAdvisor::Decide(
          node.join_kind, est_build, build.base_rows, probe.est_rows,
          SumWidths(ctx, build_required), SumWidths(ctx, probe_required),
          probe.joins, *ctx.options, skew ? &*skew : nullptr,
          ProbeKeyInRange(node));
      (*ctx.out)[join_id] = d;
      return SubtreeInfo{EstimateJoinOutputRows(node, est_build, probe.est_rows),
                         probe.base_rows, build.joins + probe.joins + 1};
    }
    case PlanNode::Kind::kAgg:
      PJOIN_CHECK_MSG(false, "aggregate must be the root");
  }
  return {};
}

}  // namespace

std::map<int, JoinDecision> JoinAdvisor::AdvisePlan(
    const PlanNode& root, const AdvisorOptions& options) {
  PJOIN_CHECK(root.kind == PlanNode::Kind::kAgg);
  std::map<int, JoinDecision> decisions;
  WalkContext ctx;
  ctx.options = &options;
  ctx.out = &decisions;
  ctx.est_scale = ResolvedEstimateScale(options);
  CollectWidths(root, &ctx.width);
  // Keys that execute as 4-byte dictionary codes (engine/coded_keys.h) are
  // costed at the code width, so the advisor models the tuples the engine
  // actually moves. Deterministic: the executor runs the same collection
  // over the same plan, so EXPLAIN and execution decide identically.
  for (const CodedKeyPlan& plan : CollectCodedJoinKeys(root)) {
    ctx.width[plan.build_name] = 4;
    ctx.width[plan.probe_name] = 4;
  }

  std::set<std::string> root_required;
  for (const auto& name : root.group_by) root_required.insert(name);
  for (const auto& agg : root.aggs) {
    if (agg.op != AggDef::Op::kCountStar) root_required.insert(agg.input);
  }
  Walk(*root.child, root_required, ctx);
  return decisions;
}

double JoinAdvisor::PartitionOverflowShare(uint64_t est_build_rows,
                                           uint32_t build_width,
                                           const AdvisorOptions& options) {
  const uint64_t l2 =
      options.l2_bytes > 0 ? options.l2_bytes : GetCpuInfo().l2_bytes;
  const double per_tuple = PaddedPartitionStride(build_width) + 24.0;
  const double build =
      static_cast<double>(std::max<uint64_t>(1, est_build_rows));
  return std::min(1.0, options.partition_margin * static_cast<double>(l2) /
                           (build * per_tuple));
}

double JoinAdvisor::ResolvedEstimateScale(const AdvisorOptions& options) {
  return options.est_scale <= 0 ? EstimateScale() : options.est_scale;
}

JoinDecision JoinAdvisor::Decide(JoinKind kind, uint64_t est_build_rows,
                                 uint64_t build_base_rows,
                                 uint64_t est_probe_rows, uint32_t build_width,
                                 uint32_t probe_width, int probe_depth,
                                 const AdvisorOptions& options,
                                 const SkewEstimate* skew,
                                 double probe_in_range) {
  const uint64_t l2 =
      options.l2_bytes > 0 ? options.l2_bytes : GetCpuInfo().l2_bytes;

  JoinDecision d;
  d.est_build_rows = est_build_rows;
  d.est_probe_rows = est_probe_rows;
  d.build_width = build_width;
  d.probe_width = probe_width;
  d.probe_depth = probe_depth;

  const double build = static_cast<double>(std::max<uint64_t>(1, est_build_rows));
  const double probe = static_cast<double>(std::max<uint64_t>(1, est_probe_rows));

  // BHJ: the chaining table holds [next][hash][matched?][row] entries plus a
  // 2x directory of 8-byte tagged slots.
  const uint32_t header = TracksBuildMatches(kind) ? 24 : 16;
  const double entry = (header + build_width + 7u) & ~7u;
  d.est_ht_bytes = static_cast<uint64_t>(build * (entry + 16.0));

  // Pass rate of the probe side through a build-key filter. Under FK
  // containment it is bounded by the surviving fraction of the build side's
  // base table, and no key outside the build key's range can pass; plus a
  // false-positive allowance.
  const bool bloomable = RadixJoin::BloomApplicable(kind);
  const double sigma =
      build_base_rows > 0
          ? std::min(1.0, build / static_cast<double>(build_base_rows))
          : 1.0;
  d.est_pass_rate =
      std::min(1.0, std::min(sigma, probe_in_range) + kBloomFpAllowance);

  // Skew estimate. A radix join's hottest final partition holds at least the
  // hottest key's share of the build side; when that share overflows the
  // margin-scaled L2 target the per-partition table degenerates (Table 4's
  // collapse) while the BHJ only gets faster. Uniform inputs never trip
  // this: an even 1/P spread is below the overflow share by construction of
  // the fan-out.
  d.est_max_partition_share = EvenPartitionShare(est_build_rows, build_width, l2);
  if (skew != nullptr) {
    d.skew_sampled = true;
    d.skew_sample_rows = skew->sample_rows;
    d.est_top_share = skew->top_share;
    d.est_max_partition_share =
        std::max(d.est_max_partition_share, skew->top_share);
  }
  const double overflow_share =
      PartitionOverflowShare(est_build_rows, build_width, options);
  d.skew_overflow = d.est_max_partition_share > overflow_share;

  // Hard rules first; they are not costed, so they never wait for a
  // calibration. Both are suspended when the budget is below the table: the
  // decision must weigh spill I/O.
  //  * A build that fits L2 never partitions (the paper's headline case —
  //    58 of 59 TPC-H joins), nor one whose estimate is within
  //    kL2OverestimateAllowance of fitting.
  //  * A probe side smaller than its build never partitions: the radix
  //    join wins by turning the probe's cache misses into sequential passes
  //    (Section 5.2), and a small probe has few misses to save.
  const uint64_t budget = options.memory_budget > 0
                              ? options.memory_budget
                              : MemoryGovernor::Global().budget();
  if (budget == 0 || d.est_ht_bytes <= budget) {
    if (static_cast<double>(d.est_ht_bytes) <=
        kL2OverestimateAllowance * static_cast<double>(l2)) {
      d.choice = JoinStrategy::kBHJ;
      d.reason = "build fits L2";
      return d;
    }
    if (est_probe_rows < est_build_rows) {
      d.choice = JoinStrategy::kBHJ;
      d.reason = "probe smaller than build";
      return d;
    }
  }

  // The probes behind the profile hold at most what this join is about to
  // allocate: its table, or the budget when that is smaller.
  const CostProfile& profile =
      options.profile != nullptr ? *options.profile : CostProfile::Process();
  const uint64_t cap =
      budget > 0 ? std::min(d.est_ht_bytes, budget) : d.est_ht_bytes;
  const BhjCosts bhj = profile.Bhj(d.est_ht_bytes, cap, &d.calibration_ms);
  const PartitionCosts& part = profile.Partition(cap, &d.calibration_ms);

  // BHJ: a probe whose key is absent is usually settled by the directory's
  // tag, without a chain walk.
  const double match = std::min(1.0, std::min(sigma, probe_in_range));
  d.cost_bhj = build * bhj.build_ns +
               probe * (match * bhj.probe_ns + (1.0 - match) * bhj.miss_ns);

  // RJ: every tuple of both sides goes through the scatter once per pass
  // (ChooseRadixBits picks a second pass only for builds far beyond L2),
  // then build tuples are linked into bucket chains and probe tuples walk
  // them. Partitioning the probe side also breaks the pipeline below it.
  const uint32_t sb = PaddedPartitionStride(build_width);
  const uint32_t sp = PaddedPartitionStride(probe_width);
  const double passes =
      ChooseRadixBits(est_build_rows | 1, 8 + build_width).bits2 > 0 ? 2 : 1;
  const double depth_penalty = 1.0 + kDepthPenalty * probe_depth;
  const double build_part =
      build * (passes * part.ScatterNs(sb) + part.chain_build_ns);
  const double probe_part = probe *
                            (passes * part.ScatterNs(sp) + part.chain_probe_ns) *
                            depth_penalty;
  d.cost_rj = build_part + probe_part;

  // BRJ: the filter is built over the build keys and tested by every probe
  // tuple; only the passing share is partitioned and joined.
  d.cost_brj = bloomable ? build_part + build * part.bloom_build_ns +
                               probe * part.bloom_probe_ns +
                               d.est_pass_rate * probe_part
                         : d.cost_rj;

  // Out-of-core term. With a memory budget below the modeled build state,
  // every strategy spills the overflow to temp files (write + re-read),
  // priced per byte like the scatter. The I/O volume is the same order for
  // all three, but the BHJ pays an extra re-pack pass over the build side —
  // it discovers the overflow only after materializing the whole table —
  // while the radix join's pass-1 pre-partitions are the spill unit:
  // eviction is one sequential write of chunks it had already formed. When
  // spilling is inevitable, partitioning is the cheaper on-ramp (the NOCAP
  // observation).
  if (budget > 0) {
    const double ns_per_byte = part.ScatterNs(64) / 64.0;
    const double io_ns = kSpillIoFactor * 2.0 * ns_per_byte;
    if (d.est_ht_bytes > budget) {
      const double f =
          1.0 - static_cast<double>(budget) / static_cast<double>(d.est_ht_bytes);
      d.cost_bhj += build * entry * ns_per_byte /* re-pack pass */ +
                    io_ns * f * (build * sb + probe * sp);
      d.spill_expected = true;
    }
    const double part_bytes = build * sb;
    if (part_bytes > budget) {
      const double f = 1.0 - static_cast<double>(budget) / part_bytes;
      d.cost_rj += io_ns * f * (build * sb + probe * sp);
      if (bloomable) {
        d.cost_brj += io_ns * f * (build * sb + probe * d.est_pass_rate * sp);
      } else {
        d.cost_brj = d.cost_rj;
      }
      d.spill_expected = true;
    }
  }

  // Skewed builds never partition (the paper's answer to skew, Table 4 and
  // Fig. 17); under a budget the BHJ goes hybrid instead.
  if (d.skew_overflow) {
    d.choice = JoinStrategy::kBHJ;
    d.reason = "skewed build; partitioning collapses";
    return d;
  }
  const double best_partitioned =
      bloomable ? std::min(d.cost_rj, d.cost_brj) : d.cost_rj;
  if (best_partitioned < options.partition_margin * d.cost_bhj) {
    if (bloomable && d.cost_brj <= d.cost_rj) {
      if (d.est_pass_rate >= kAdaptivePassRate) {
        d.choice = JoinStrategy::kBRJAdaptive;
        d.reason = d.spill_expected
                       ? "spill inevitable; partition, filter uncertain"
                       : "partitioning cheaper; filter benefit uncertain";
      } else {
        d.choice = JoinStrategy::kBRJ;
        d.reason = d.spill_expected
                       ? "spill inevitable; filter shrinks spilled probe"
                       : "filter prunes probe before partitioning";
      }
    } else {
      d.choice = JoinStrategy::kRJ;
      d.reason = d.spill_expected ? "spill inevitable; partitioned spill cheaper"
                                  : "partitioning cheaper than cache misses";
    }
  } else {
    d.choice = JoinStrategy::kBHJ;
    d.reason = d.spill_expected ? "spill inevitable; hybrid hash still cheaper"
                                : "partitioning not worth the time";
  }
  return d;
}

}  // namespace pjoin
