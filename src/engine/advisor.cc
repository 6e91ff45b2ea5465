#include "engine/advisor.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <set>
#include <string>

#include "engine/coded_keys.h"
#include "spill/memory_governor.h"
#include "stats/column_catalog.h"
#include "util/check.h"
#include "util/cpu_info.h"
#include "util/env.h"

namespace pjoin {

namespace {

// --- Cost-model calibration ------------------------------------------------
// All costs are modeled bytes of memory traffic per join. The constants
// encode the paper's Section 5 surfaces qualitatively: a non-partitioned
// probe pays at most two cache lines per tuple (directory slot + entry, with
// software prefetching hiding most of the latency), while partitioning pays
// a fixed number of full passes over padded tuples on both sides.

// Per-probe-tuple penalty (bytes) when the BHJ table lives in the LLC.
constexpr double kLlcMissBytes = 24.0;
// Per-probe-tuple penalty (bytes) when the BHJ table spills to DRAM:
// directory line plus entry line, discounted for prefetch overlap.
constexpr double kDramMissBytes = 96.0;
// Material passes over each side's padded partition tuples: pass-1 write,
// histogram re-scan, pass-2 read + write, join-phase read.
constexpr double kPassFactor = 5.0;
// Per-partition robin-hood insert cost per build tuple (bytes).
constexpr double kPartitionInsertBytes = 16.0;
// Pipeline-depth penalty per join below the probe side: partitioning breaks
// the probe pipeline, re-materializing work the joins below already paid for.
constexpr double kDepthPenalty = 0.05;
// Bloom filter: bytes touched per key on build and per tuple on probe.
constexpr double kBloomBytesPerKey = 8.0;
// False-positive allowance added to the modeled pass rate.
constexpr double kBloomFpAllowance = 0.05;
// Above this modeled pass rate a winning BRJ is demoted to the adaptive
// variant: the filter is likely useless and should be able to switch off.
constexpr double kAdaptivePassRate = 0.8;
// Cost (in modeled memory-traffic bytes) per byte of spill I/O. Buffered
// sequential temp-file I/O is slower than a DRAM pass but not catastrophically
// so; the factor applies to write + re-read of every spilled byte.
constexpr double kSpillIoFactor = 4.0;
// Runtime guardrail: a guarded partitioned plan runs not partitioned when
// its staged build side exceeds the estimate by this factor.
constexpr double kBuildOverflowFactor = 4.0;

// Stride of a [hash:8B][row] partition tuple as the radix partitioner pads
// it (power of two up to 64 bytes for write-combine buffers).
double PaddedPartitionStride(uint32_t row_width) {
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

// Scales `rows` by observed/estimated, clamped to at least one row: the
// cardinality-feedback correction re-planning applies up a join chain.
uint64_t ScaleRows(uint64_t rows, uint64_t observed, uint64_t estimated) {
  const double ratio = static_cast<double>(std::max<uint64_t>(1, observed)) /
                       static_cast<double>(std::max<uint64_t>(1, estimated));
  return std::max<uint64_t>(
      1, static_cast<uint64_t>(std::llround(
             static_cast<double>(std::max<uint64_t>(1, rows)) * ratio)));
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

// The skew estimate of `join`'s first build key: its base column's
// hottest-value share from the column catalog. None for computed keys,
// non-numeric columns, and empty tables.
std::optional<SkewEstimate> BuildKeySkew(const PlanNode& join) {
  if (join.keys.empty()) return std::nullopt;
  int col = -1;
  const Table* table =
      ResolveBaseColumn(*join.build, join.keys[0].first, &col);
  if (table == nullptr) return std::nullopt;
  const TableStats* ts = ColumnCatalog::Global().Get(*table);
  if (ts == nullptr) return std::nullopt;
  const EqualHeightHistogram& h = ts->columns[col].histogram;
  if (!h.valid()) return std::nullopt;
  return SkewEstimate{h.sample_rows(), h.top_share()};
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
          probe.joins, *ctx.options, skew ? &*skew : nullptr);
      d.est_build_base_rows = build.base_rows;
      d.est_out_rows = EstimateJoinOutputRows(node, est_build, probe.est_rows);
      (*ctx.out)[join_id] = d;
      return SubtreeInfo{d.est_out_rows, probe.base_rows,
                         build.joins + probe.joins + 1};
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

double JoinAdvisor::ResolvedReplanThreshold(const AdvisorOptions& options) {
  return options.replan_qerror < 0 ? ReplanQErrorThreshold()
                                   : options.replan_qerror;
}

double JoinAdvisor::ResolvedEstimateScale(const AdvisorOptions& options) {
  return options.est_scale <= 0 ? EstimateScale() : options.est_scale;
}

JoinDecision JoinAdvisor::Decide(JoinKind kind, uint64_t est_build_rows,
                                 uint64_t build_base_rows,
                                 uint64_t est_probe_rows, uint32_t build_width,
                                 uint32_t probe_width, int probe_depth,
                                 const AdvisorOptions& options,
                                 const SkewEstimate* skew) {
  const CpuInfo& cpu = GetCpuInfo();
  const uint64_t l2 = options.l2_bytes > 0 ? options.l2_bytes : cpu.l2_bytes;
  const uint64_t llc =
      options.llc_bytes > 0 ? options.llc_bytes : cpu.llc_bytes;

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

  double miss = kDramMissBytes;
  if (d.est_ht_bytes <= l2) {
    miss = 0.0;
  } else if (d.est_ht_bytes <= llc) {
    miss = kLlcMissBytes;
  }
  d.cost_bhj = 2.0 * build * entry + probe * (probe_width + miss);

  // RJ: kPassFactor passes over padded [hash][row] tuples on both sides plus
  // per-partition table inserts; partitioning the probe side also breaks the
  // pipeline below it (depth penalty).
  const double sb = PaddedPartitionStride(build_width);
  const double sp = PaddedPartitionStride(probe_width);
  const double depth_penalty = 1.0 + kDepthPenalty * probe_depth;
  const double build_part_cost =
      kPassFactor * build * sb + kPartitionInsertBytes * build;
  d.cost_rj = build_part_cost + kPassFactor * probe * sp * depth_penalty;

  // BRJ: the filter prunes the probe side before it is partitioned. Under
  // FK containment the pass rate is bounded by the surviving fraction of the
  // build side's base table, plus a false-positive allowance.
  const bool bloomable = RadixJoin::BloomApplicable(kind);
  const double sigma =
      build_base_rows > 0
          ? std::min(1.0, build / static_cast<double>(build_base_rows))
          : 1.0;
  d.est_pass_rate = std::min(1.0, sigma + kBloomFpAllowance);
  d.cost_brj =
      bloomable
          ? build_part_cost + kBloomBytesPerKey * (build + probe) +
                kPassFactor * probe * d.est_pass_rate * sp * depth_penalty
          : d.cost_rj;

  // Out-of-core term. With a memory budget below the modeled build state,
  // every strategy spills the overflow to temp files (write + re-read). The
  // I/O volume is the same order for all three, but the BHJ pays an extra
  // re-pack pass over the build side — it discovers the overflow only after
  // materializing the whole table — while the radix join's pass-1
  // pre-partitions are the spill unit: eviction is one sequential write of
  // chunks it had already formed. When spilling is inevitable, partitioning
  // is the cheaper on-ramp (the NOCAP observation).
  const uint64_t budget = options.memory_budget > 0
                              ? options.memory_budget
                              : MemoryGovernor::Global().budget();
  if (budget > 0) {
    if (d.est_ht_bytes > budget) {
      const double f =
          1.0 - static_cast<double>(budget) / static_cast<double>(d.est_ht_bytes);
      d.cost_bhj += build * entry /* re-pack pass */ +
                    kSpillIoFactor * 2.0 * f * (build * sb + probe * sp);
      d.spill_expected = true;
    }
    const double part_bytes = build * sb;
    if (part_bytes > budget) {
      const double f = 1.0 - static_cast<double>(budget) / part_bytes;
      d.cost_rj += kSpillIoFactor * 2.0 * f * (build * sb + probe * sp);
      if (bloomable) {
        d.cost_brj += kSpillIoFactor * 2.0 * f *
                      (build * sb + probe * d.est_pass_rate * sp);
      } else {
        d.cost_brj = d.cost_rj;
      }
      d.spill_expected = true;
    }
  }

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

  // Decision. Hard rule first: a build side that fits L2 never partitions
  // (the paper's headline case — 58 of 59 TPC-H joins). Suspended when the
  // budget is below even that table: the decision must weigh spill I/O.
  if (d.est_ht_bytes <= l2 && (budget == 0 || d.est_ht_bytes <= budget)) {
    d.choice = JoinStrategy::kBHJ;
    d.reason = "build fits L2";
    return d;
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
                                : "partitioning not worth the bandwidth";
  }
  return d;
}

// --- Runtime resolution ----------------------------------------------------

JoinStrategy JoinAdvisor::PartitionedVariant(JoinKind kind,
                                             const JoinDecision& plan) {
  if (plan.choice != JoinStrategy::kBHJ) return plan.choice;
  return RadixJoin::BloomApplicable(kind) && plan.cost_brj < plan.cost_rj
             ? JoinStrategy::kBRJ
             : JoinStrategy::kRJ;
}

JoinResolution JoinAdvisor::Resolve(JoinKind kind, const JoinDecision& plan,
                                    uint64_t staged_build,
                                    uint64_t corrected_probe,
                                    double replan_qerror,
                                    const AdvisorOptions& options) {
  JoinResolution r;
  ReplanMetrics& rp = r.replan;
  const bool planned_bhj = plan.choice == JoinStrategy::kBHJ;
  bool bhj = planned_bhj;
  if (replan_qerror > 0) {
    rp.enabled = true;
    rp.staged_build_tuples = staged_build;
    rp.corrected_probe_tuples = corrected_probe;
    rp.qerror_build = EstimateQError(plan.est_build_rows, staged_build);
    rp.qerror_probe = EstimateQError(plan.est_probe_rows, corrected_probe);
    if (std::max(rp.qerror_build, rp.qerror_probe) >= replan_qerror) {
      // Estimate wrong: re-cost with the observed build side and the
      // corrected probe side. The skew estimate survives from plan time (it
      // describes the base column, which did not change).
      rp.triggered = true;
      const SkewEstimate skew{plan.skew_sample_rows, plan.est_top_share};
      const JoinDecision re = Decide(
          kind, staged_build, std::max(plan.est_build_base_rows, staged_build),
          corrected_probe, plan.build_width, plan.probe_width,
          plan.probe_depth, options, plan.skew_sampled ? &skew : nullptr);
      rp.recost_bhj = re.cost_bhj;
      rp.recost_rj = re.cost_rj;
      rp.recost_brj = re.cost_brj;
      bhj = re.choice == JoinStrategy::kBHJ;
    }
  }
  if (!rp.triggered && !bhj) {
    // Guardrail: an undersold build side mis-sizes the partition fan-out.
    const double estimate =
        static_cast<double>(std::max<uint64_t>(1, plan.est_build_rows));
    const auto limit = static_cast<uint64_t>(
        std::max(1.0, std::ceil(estimate * kBuildOverflowFactor)));
    if (staged_build > limit) {
      r.overflow_demoted = true;
      bhj = true;
    }
  }
  r.partition = !bhj;
  if (rp.enabled) {
    rp.switched = bhj != planned_bhj;
    rp.final_choice = bhj ? JoinStrategy::kBHJ : PartitionedVariant(kind, plan);
  }
  return r;
}

AdvisorGuard::AdvisorGuard(JoinKind kind, const JoinDecision& decision,
                           const AdvisorOptions& options, int join_id,
                           int feedback_begin)
    : kind_(kind),
      decision_(decision),
      options_(options),
      replan_qerror_(JoinAdvisor::ResolvedReplanThreshold(options)),
      join_id_(join_id),
      feedback_begin_(feedback_begin) {}

bool AdvisorGuard::Partition(ExecContext& exec, uint64_t staged_build) {
  uint64_t corrected_probe = std::max<uint64_t>(1, decision_.est_probe_rows);
  if (deferred()) {
    // Correct the probe estimate from the nearest upstream join that
    // published feedback (post-order: the probe subtree's top join has the
    // highest id below ours).
    for (int id = join_id_ - 1; id >= feedback_begin_; --id) {
      const ExecContext::CardFeedback* fb = exec.FindCardFeedback(id);
      if (fb == nullptr) continue;
      corrected_probe =
          ScaleRows(corrected_probe, fb->corrected_rows, fb->est_rows);
      break;
    }
    // Publish this join's output estimate, corrected by the ratio the build
    // side was off by; downstream joins resolve after us.
    ExecContext::CardFeedback fb;
    fb.est_rows = decision_.est_out_rows;
    fb.corrected_rows = ScaleRows(decision_.est_out_rows, staged_build,
                                  decision_.est_build_rows);
    exec.RecordCardFeedback(join_id_, fb);
  }
  resolution_ = JoinAdvisor::Resolve(kind_, decision_, staged_build,
                                     corrected_probe, replan_qerror_, options_);
  return resolution_.partition;
}

void AdvisorGuard::ProbeCounted(ExecContext& exec, uint64_t rows) {
  if (!deferred()) return;
  // Refine the published output estimate with the observed probe count.
  const ExecContext::CardFeedback* prev = exec.FindCardFeedback(join_id_);
  if (prev == nullptr || prev->exact) return;
  ExecContext::CardFeedback fb = *prev;
  fb.corrected_rows =
      ScaleRows(fb.corrected_rows, rows, decision_.est_probe_rows);
  exec.RecordCardFeedback(join_id_, fb);
}

void AdvisorGuard::OutputCounted(ExecContext& exec, uint64_t rows) {
  if (!deferred()) return;
  ExecContext::CardFeedback fb;
  fb.est_rows = decision_.est_out_rows;
  fb.corrected_rows = rows;
  fb.exact = true;
  exec.RecordCardFeedback(join_id_, fb);
}

}  // namespace pjoin
