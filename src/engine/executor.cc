#include "engine/executor.h"

#include <deque>

#include "engine/coded_keys.h"
#include "filter/blocked_bloom.h"
#include "rewrite/bloom_ops.h"
#include "rewrite/rewrite.h"
#include "spill/memory_governor.h"
#include "stats/column_catalog.h"
#include "util/check.h"
#include "util/env.h"
#include "util/stopwatch.h"

namespace pjoin {

namespace {

using ColumnRef = PlanNode::ColumnRef;

// Collects every name a subtree can produce, including the synthetic
// `<table>.#tid` tuple-id columns of its scans.
void CollectNames(const PlanNode& node, std::set<std::string>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      for (const auto& def : node.table->schema().columns()) {
        out->insert(def.name);
      }
      out->insert(TableScanSource::TidColumnName(node.table->name()));
      break;
    case PlanNode::Kind::kFilter:
      CollectNames(*node.child, out);
      break;
    case PlanNode::Kind::kMap:
      CollectNames(*node.child, out);
      for (const auto& map : node.maps) out->insert(map.name);
      break;
    case PlanNode::Kind::kJoin:
      CollectNames(*node.build, out);
      CollectNames(*node.probe, out);
      if (node.join_kind == JoinKind::kMark) out->insert(node.mark_name);
      break;
    case PlanNode::Kind::kAgg:
      CollectNames(*node.child, out);
      break;
  }
}

// Builds the global name -> definition map.
void CollectRefs(const PlanNode& node, std::map<std::string, ColumnRef>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      for (const auto& def : node.table->schema().columns()) {
        (*out)[def.name] =
            ColumnRef{def.name, def.type, def.width(), node.table};
      }
      std::string tid = TableScanSource::TidColumnName(node.table->name());
      (*out)[tid] = ColumnRef{tid, DataType::kInt64, 8, nullptr};
      break;
    }
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kAgg:
      CollectRefs(*node.child, out);
      break;
    case PlanNode::Kind::kMap:
      CollectRefs(*node.child, out);
      for (const auto& map : node.maps) {
        (*out)[map.name] = ColumnRef{map.name, map.type,
                                     TypeWidth(map.type, map.char_len),
                                     nullptr};
      }
      break;
    case PlanNode::Kind::kJoin:
      CollectRefs(*node.build, out);
      CollectRefs(*node.probe, out);
      if (node.join_kind == JoinKind::kMark) {
        (*out)[node.mark_name] =
            ColumnRef{node.mark_name, DataType::kInt64, 8, nullptr};
      }
      break;
  }
}

// Columns whose use forces early materialization: filter inputs, map inputs,
// and join keys. Aggregate inputs and group keys are *not* early — deferring
// them is exactly what late materialization buys.
void CollectEarlyUses(const PlanNode& node, std::set<std::string>* out) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      break;  // scan predicates read the base table directly
    case PlanNode::Kind::kFilter:
      for (const auto& name : node.filter.inputs) out->insert(name);
      CollectEarlyUses(*node.child, out);
      break;
    case PlanNode::Kind::kMap:
      for (const auto& map : node.maps) {
        for (const auto& name : map.inputs) out->insert(name);
      }
      CollectEarlyUses(*node.child, out);
      break;
    case PlanNode::Kind::kJoin:
      for (const auto& [b, p] : node.keys) {
        out->insert(b);
        out->insert(p);
      }
      CollectEarlyUses(*node.build, out);
      CollectEarlyUses(*node.probe, out);
      break;
    case PlanNode::Kind::kAgg:
      CollectEarlyUses(*node.child, out);
      break;
  }
}

// Wall plus finish seconds of the distinct pipelines `ops` ran in (null
// entries and operators that never ran are skipped).
double PipelineSeconds(const QueryMetrics& qm,
                       std::initializer_list<const OperatorMetrics*> ops) {
  std::set<int> seen;
  double seconds = 0;
  for (const OperatorMetrics* op : ops) {
    if (op == nullptr || op->pipeline_index() < 0 ||
        !seen.insert(op->pipeline_index()).second) {
      continue;
    }
    const PipelineMetrics& p = qm.pipelines()[op->pipeline_index()];
    seconds += p.wall_seconds + p.finish_seconds;
  }
  return seconds;
}

// Copies the advisor's decision record, and how a guarded join resolved at
// runtime, into a join's metrics so EXPLAIN ANALYZE and the JSON export can
// show estimated vs actual.
void AttachAdvisorMetrics(JoinMetrics& m, const JoinDecision& d,
                          const JoinResolution& r) {
  m.advisor.present = true;
  m.advisor.choice = d.choice;
  m.advisor.est_build_tuples = d.est_build_rows;
  m.advisor.est_probe_tuples = d.est_probe_rows;
  m.advisor.cost_bhj = d.cost_bhj;
  m.advisor.cost_rj = d.cost_rj;
  m.advisor.cost_brj = d.cost_brj;
  m.advisor.calibration_ms = d.calibration_ms;
  m.advisor.reason = d.reason;
  m.advisor.skew_sampled = d.skew_sampled;
  m.advisor.est_top_share = d.est_top_share;
  m.advisor.est_max_partition_share = d.est_max_partition_share;
  m.advisor.fell_back = r.overflow_demoted;
  m.replan = r.replan;
}

class Lowerer {
 public:
  Lowerer(const ExecOptions& options, int num_threads)
      : options_(options), num_threads_(num_threads) {}

  void LowerQuery(const PlanNode& root);
  QueryResult Run(ThreadPool& pool, QueryStats* stats);

  // Attaches the rewrite record (set only when the pass changed the plan);
  // Run() adds the runtime drop counts and publishes it to the metrics.
  void set_rewrite_info(const RewriteInfo* info) { rewrite_info_ = info; }

 private:
  struct Stream {
    Pipeline* pipeline = nullptr;
    const RowLayout* layout = nullptr;
  };

  Stream Lower(const PlanNode& node, const std::set<std::string>& required);
  Stream LowerScan(const PlanNode& node,
                   const std::set<std::string>& required);
  Stream LowerJoin(const PlanNode& node,
                   const std::set<std::string>& required);

  const RowLayout* MakeLayout(const std::vector<std::string>& names);
  const RowLayout* ExtendLayout(const RowLayout* base,
                                std::vector<RowField> extra);
  Pipeline* NewPipeline(Source* source, JoinPhase phase,
                        const std::string& label);
  void CompletePipeline(Pipeline* pipeline) { run_order_.push_back(pipeline); }

  // Splits `required` across the two join sides; aborts on unknown names.
  static std::vector<std::string> Sorted(const std::set<std::string>& s) {
    return std::vector<std::string>(s.begin(), s.end());
  }

  const ExecOptions& options_;
  int num_threads_;

  std::map<std::string, ColumnRef> refs_;
  std::set<std::string> late_columns_;
  // Join keys that travel as dictionary codes (engine/coded_keys.h): the
  // plans, the probe->build remap tables (deque: scans hold pointers into
  // them), and the per-table emit lists handed to the scans.
  std::vector<CodedKeyPlan> coded_keys_;
  std::deque<std::vector<uint32_t>> remaps_;
  std::map<const Table*, std::vector<CodedKeyEmit>> scan_coded_;
  int next_join_id_ = 0;
  std::map<int, JoinDecision> advice_;  // kAuto decisions, by join id

  // Owned plan machinery; layouts/projections must be address-stable.
  std::vector<std::unique_ptr<RowLayout>> layouts_;
  std::vector<std::unique_ptr<JoinProjection>> projections_;
  std::vector<std::unique_ptr<Source>> sources_;
  std::vector<std::unique_ptr<Operator>> operators_;
  std::vector<std::unique_ptr<HashJoin>> hash_joins_;
  std::vector<std::unique_ptr<RadixJoin>> radix_joins_;
  std::vector<std::unique_ptr<Pipeline>> pipelines_;
  std::vector<Pipeline*> run_order_;
  std::vector<TableScanSource*> scans_;
  std::set<const Table*> scanned_tables_;  // for the stats metrics snapshot
  // Rewrite-planted Bloom filters, keyed by BloomPlant::id. Created when
  // the planting join's build side is lowered — always before the distant
  // probe scan, which lives in that join's probe subtree.
  std::map<int, std::unique_ptr<BlockedBloomFilter>> rewrite_blooms_;
  std::vector<BloomProbeOp*> bloom_probe_ops_;
  const RewriteInfo* rewrite_info_ = nullptr;
  // Per-join observability collectors, invoked after the run (they read the
  // operator registry, so rows_out is only final once the pipelines stop).
  std::vector<std::function<JoinMetrics(const QueryMetrics&)>> metrics_fns_;
  HashAggOp* root_agg_ = nullptr;
};

const RowLayout* Lowerer::MakeLayout(const std::vector<std::string>& names) {
  std::vector<RowField> fields;
  fields.reserve(names.size());
  for (const auto& name : names) {
    auto it = refs_.find(name);
    PJOIN_CHECK_MSG(it != refs_.end(), name.c_str());
    fields.push_back(
        RowField{name, it->second.type, it->second.width, 0});
  }
  layouts_.push_back(std::make_unique<RowLayout>(std::move(fields)));
  return layouts_.back().get();
}

const RowLayout* Lowerer::ExtendLayout(const RowLayout* base,
                                       std::vector<RowField> extra) {
  std::vector<RowField> fields = base->fields();
  for (auto& f : extra) fields.push_back(std::move(f));
  layouts_.push_back(std::make_unique<RowLayout>(std::move(fields)));
  return layouts_.back().get();
}

Pipeline* Lowerer::NewPipeline(Source* source, JoinPhase phase,
                               const std::string& label) {
  pipelines_.push_back(std::make_unique<Pipeline>());
  Pipeline* p = pipelines_.back().get();
  p->set_source(source);
  p->timing_phase = phase;
  p->label = label;
  return p;
}

Lowerer::Stream Lowerer::LowerScan(const PlanNode& node,
                                   const std::set<std::string>& required) {
  const std::string tid_name =
      TableScanSource::TidColumnName(node.table->name());
  std::vector<std::string> names;
  for (const auto& name : Sorted(required)) {
    // Keep only names this table provides (tid included).
    if (name == tid_name || node.table->schema().Find(name) >= 0) {
      names.push_back(name);
    }
  }
  const RowLayout* layout = MakeLayout(names);
  std::vector<CodedKeyEmit> coded;
  auto coded_it = scan_coded_.find(node.table);
  if (coded_it != scan_coded_.end()) coded = coded_it->second;
  sources_.push_back(std::make_unique<TableScanSource>(
      node.table, layout, node.predicates, std::move(coded)));
  auto* scan = static_cast<TableScanSource*>(sources_.back().get());
  scans_.push_back(scan);
  scanned_tables_.insert(node.table);
  Pipeline* pipeline = NewPipeline(scan, JoinPhase::kProbePipeline,
                                   "scan " + node.table->name());
  if (!node.bloom_probes.empty()) {
    // Rewrite-planted semi-join filters: drop non-members right at the
    // scan, before any intermediate join sees the row.
    std::vector<BloomHook> hooks;
    for (const auto& plant : node.bloom_probes) {
      auto filter_it = rewrite_blooms_.find(plant.id);
      PJOIN_CHECK_MSG(filter_it != rewrite_blooms_.end(),
                      "bloom probe lowered before its build");
      hooks.push_back(BloomHook{-1, plant.probe_column,
                                filter_it->second.get()});
    }
    operators_.push_back(
        std::make_unique<BloomProbeOp>(layout, std::move(hooks)));
    auto* probe_op = static_cast<BloomProbeOp*>(operators_.back().get());
    bloom_probe_ops_.push_back(probe_op);
    pipeline->AddOperator(probe_op);
  }
  return Stream{pipeline, layout};
}

Lowerer::Stream Lowerer::LowerJoin(const PlanNode& node,
                                   const std::set<std::string>& required) {
  // Which names does each side provide?
  std::set<std::string> build_names, probe_names;
  CollectNames(*node.build, &build_names);
  CollectNames(*node.probe, &probe_names);

  std::set<std::string> build_required, probe_required;
  for (const auto& name : required) {
    if (node.join_kind == JoinKind::kMark && name == node.mark_name) continue;
    if (build_names.count(name)) {
      build_required.insert(name);
    } else if (probe_names.count(name)) {
      probe_required.insert(name);
    } else {
      PJOIN_CHECK_MSG(false, ("join cannot provide column " + name).c_str());
    }
  }
  for (const auto& [b, p] : node.keys) {
    build_required.insert(b);
    probe_required.insert(p);
  }

  Stream build = Lower(*node.build, build_required);

  // Rewrite-planted Bloom filters are populated on this build pipeline, so
  // it must run before the distant scans that consult them — and those
  // scans sit in the probe subtree, whose pipelines normally complete (and
  // therefore run) ahead of this build. Completing the build pipeline here,
  // before lowering the probe subtree, restores the ordering; the build
  // sink appended further down still joins the chain because Pipeline::Run
  // wires operators at run time.
  bool build_completed = false;
  if (!node.bloom_builds.empty()) {
    std::vector<BloomHook> hooks;
    for (const auto& plant : node.bloom_builds) {
      auto filter = std::make_unique<BlockedBloomFilter>();
      filter->Resize(node.build->EstimateRows() | 1);
      hooks.push_back(BloomHook{-1, plant.build_column, filter.get()});
      rewrite_blooms_[plant.id] = std::move(filter);
    }
    operators_.push_back(std::make_unique<BloomBuildOp>(
        build.layout, std::move(hooks), node.bloom_builds[0].source_join));
    build.pipeline->AddOperator(operators_.back().get());
    build.pipeline->timing_phase = JoinPhase::kBuildPipeline;
    CompletePipeline(build.pipeline);
    build_completed = true;
  }

  // Join ids assigned while lowering the probe subtree form the feedback
  // range a replan-armed join reads its corrected probe estimate from.
  const int probe_ids_begin = next_join_id_;
  Stream probe = Lower(*node.probe, probe_required);

  // Join id in post-order (children were lowered first) — the numbering of
  // the paper's Figure 12 per-join analysis.
  const int join_id = next_join_id_++;
  JoinStrategy strategy = options_.join_strategy;
  auto it = options_.join_overrides.find(join_id);
  if (it != options_.join_overrides.end()) strategy = it->second;

  // kAuto resolves to the advisor's per-join pick (computed in LowerQuery
  // with the same post-order numbering).
  const JoinDecision* decision = nullptr;
  if (strategy == JoinStrategy::kAuto) {
    auto ad = advice_.find(join_id);
    PJOIN_CHECK_MSG(ad != advice_.end(), "advisor decision missing");
    decision = &ad->second;
    strategy = decision->choice;
  }

  // Output layout and projection.
  std::vector<std::string> out_names = Sorted(required);
  const RowLayout* out = MakeLayout(out_names);
  projections_.push_back(std::make_unique<JoinProjection>());
  JoinProjection* projection = projections_.back().get();
  projection->output = out;
  projection->build = build.layout;
  projection->probe = probe.layout;
  for (int f = 0; f < out->num_fields(); ++f) {
    const std::string& name = out->field(f).name;
    if (node.join_kind == JoinKind::kMark && name == node.mark_name) {
      projection->mark_field = f;
      continue;
    }
    int bf = build.layout->Find(name);
    if (bf >= 0) {
      projection->from_build.push_back({f, bf});
    } else {
      projection->from_probe.push_back({f, probe.layout->IndexOf(name)});
    }
  }

  std::vector<int> build_keys, probe_keys;
  for (const auto& [b, p] : node.keys) {
    build_keys.push_back(build.layout->IndexOf(b));
    probe_keys.push_back(probe.layout->IndexOf(p));
  }

  const bool advised = decision != nullptr;
  const JoinDecision adv = advised ? *decision : JoinDecision{};

  // Two pipeline shapes. A manual BHJ, and an advised BHJ with re-planning
  // off, lower to the pipelined probe (the HashJoin family); every other
  // join lowers to the breaker probe (the radix family). Advised joins there
  // run guarded, so partition-or-not is answered again once the build side
  // is staged — with re-planning armed even an advised BHJ, whose staged
  // build can become either engine's.
  const bool guarded =
      advised && (strategy != JoinStrategy::kBHJ ||
                  JoinAdvisor::ResolvedReplanThreshold(options_.advisor) > 0);

  if (strategy == JoinStrategy::kBHJ && !guarded) {
    hash_joins_.push_back(std::make_unique<HashJoin>(
        node.join_kind, build.layout, build_keys, probe.layout, probe_keys,
        *projection));
    HashJoin* join = hash_joins_.back().get();
    join->set_join_id(join_id);
    operators_.push_back(std::make_unique<HashJoinBuildSink>(join));
    Operator* build_op = operators_.back().get();
    build.pipeline->AddOperator(build_op);
    build.pipeline->timing_phase = JoinPhase::kBuildPipeline;
    if (!build_completed) CompletePipeline(build.pipeline);

    operators_.push_back(std::make_unique<HashJoinProbe>(join));
    Operator* probe_op = operators_.back().get();
    probe.pipeline->AddOperator(probe_op);
    // Build-preserving kinds: the probe pipeline only sets flags; a scan
    // over the hash table starts the next pipeline.
    Source* scan_src = nullptr;
    if (EmitsBuildRows(node.join_kind)) {
      CompletePipeline(probe.pipeline);
      sources_.push_back(std::make_unique<HashJoinBuildScanSource>(join));
      scan_src = sources_.back().get();
    }
    metrics_fns_.push_back([join, build_op, probe_op, scan_src, advised,
                            adv](const QueryMetrics& qm) {
      JoinMetrics m = join->CollectMetrics();
      m.seconds = PipelineSeconds(
          qm, {build_op->metrics(), probe_op->metrics(),
               scan_src != nullptr ? scan_src->metrics() : nullptr});
      // Right-outer pairs and build-only rows replay through the ht scan.
      if (probe_op->metrics() != nullptr) {
        m.rows_out += probe_op->metrics()->Totals().rows_out;
      }
      if (scan_src != nullptr && scan_src->metrics() != nullptr) {
        m.rows_out += scan_src->metrics()->Totals().rows_out;
      }
      if (advised) AttachAdvisorMetrics(m, adv, JoinResolution{});
      return m;
    });
    if (scan_src == nullptr) return Stream{probe.pipeline, out};
    Pipeline* next = NewPipeline(scan_src, JoinPhase::kJoin,
                                 "ht scan j" + std::to_string(join_id));
    return Stream{next, out};
  }

  // Breaker probe: radix joins (RJ / BRJ / adaptive BRJ), guarded when
  // advised.
  RadixJoin::Options radix_options;
  radix_options.strategy =
      guarded ? JoinAdvisor::PartitionedVariant(node.join_kind, adv)
              : strategy;
  radix_options.expected_build_tuples =
      (advised ? adv.est_build_rows : node.build->EstimateRows()) | 1;
  radix_options.num_threads = num_threads_;
  radix_options.bits1 = options_.radix_bits1;
  radix_options.bits2 = options_.radix_bits2;
  radix_options.use_swwcb = options_.use_swwcb;
  radix_options.use_streaming = options_.use_streaming;

  radix_joins_.push_back(std::make_unique<RadixJoin>(
      node.join_kind, build.layout, build_keys, probe.layout, probe_keys,
      *projection, radix_options));
  RadixJoin* join = radix_joins_.back().get();
  join->set_join_id(join_id);
  const AdvisorGuard* guard = nullptr;
  if (guarded) {
    auto owned = std::make_unique<AdvisorGuard>(
        node.join_kind, adv, options_.advisor, join_id, probe_ids_begin);
    guard = owned.get();
    join->set_guard(std::move(owned));
  }

  operators_.push_back(std::make_unique<RadixBuildSink>(join));
  Operator* build_op = operators_.back().get();
  build.pipeline->AddOperator(build_op);
  build.pipeline->timing_phase = JoinPhase::kBuildPipeline;
  if (!build_completed) CompletePipeline(build.pipeline);

  operators_.push_back(std::make_unique<RadixProbeSink>(join));
  Operator* probe_op = operators_.back().get();
  probe.pipeline->AddOperator(probe_op);
  probe.pipeline->timing_phase = JoinPhase::kPartitionPass1;
  CompletePipeline(probe.pipeline);

  sources_.push_back(std::make_unique<PartitionJoinSource>(join));
  Source* join_src = sources_.back().get();
  metrics_fns_.push_back([join, build_op, probe_op, join_src,
                          guard](const QueryMetrics& qm) {
    JoinMetrics m = join->CollectMetrics();
    m.seconds = PipelineSeconds(
        qm, {build_op->metrics(), probe_op->metrics(), join_src->metrics()});
    if (join_src->metrics() != nullptr) {
      m.rows_out = join_src->metrics()->Totals().rows_out;
    }
    if (guard != nullptr) {
      AttachAdvisorMetrics(m, guard->decision(), guard->resolution());
    }
    return m;
  });
  Pipeline* next = NewPipeline(join_src, JoinPhase::kJoin,
                               "radix join j" + std::to_string(join_id));
  return Stream{next, out};
}

Lowerer::Stream Lowerer::Lower(const PlanNode& node,
                               const std::set<std::string>& required) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return LowerScan(node, required);
    case PlanNode::Kind::kFilter: {
      std::set<std::string> child_required = required;
      for (const auto& name : node.filter.inputs) child_required.insert(name);
      Stream s = Lower(*node.child, child_required);
      operators_.push_back(std::make_unique<FilterOp>(&node.filter, s.layout));
      s.pipeline->AddOperator(operators_.back().get());
      return s;
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
      Stream s = Lower(*node.child, child_required);
      std::vector<RowField> extra;
      for (const auto& map : node.maps) {
        extra.push_back(RowField{map.name, map.type,
                                 TypeWidth(map.type, map.char_len), 0});
      }
      const RowLayout* out = ExtendLayout(s.layout, std::move(extra));
      operators_.push_back(
          std::make_unique<MapOp>(&node.maps, s.layout, out));
      s.pipeline->AddOperator(operators_.back().get());
      return Stream{s.pipeline, out};
    }
    case PlanNode::Kind::kJoin:
      return LowerJoin(node, required);
    case PlanNode::Kind::kAgg:
      PJOIN_CHECK_MSG(false, "aggregate must be the root");
  }
  return {};
}

void Lowerer::LowerQuery(const PlanNode& root) {
  PJOIN_CHECK(root.kind == PlanNode::Kind::kAgg);
  CollectRefs(root, &refs_);

  // Join-on-codes: qualifying CHAR key pairs travel as 4-byte dictionary
  // codes. The ref overlay makes every layout built below carry the code
  // field; the probe side additionally gets a remap into the build side's
  // code space, applied inside the scan.
  coded_keys_ = CollectCodedJoinKeys(root);
  for (const CodedKeyPlan& plan : coded_keys_) {
    refs_[plan.build_name].type = DataType::kInt32;
    refs_[plan.build_name].width = 4;
    refs_[plan.probe_name].type = DataType::kInt32;
    refs_[plan.probe_name].width = 4;
    remaps_.push_back(BuildCodeRemap(*plan.probe_enc, *plan.build_enc));
    scan_coded_[plan.build_table].push_back(
        CodedKeyEmit{plan.build_name, plan.build_enc, nullptr});
    scan_coded_[plan.probe_table].push_back(
        CodedKeyEmit{plan.probe_name, plan.probe_enc, &remaps_.back()});
  }

  bool needs_advisor = options_.join_strategy == JoinStrategy::kAuto;
  for (const auto& [id, s] : options_.join_overrides) {
    needs_advisor = needs_advisor || s == JoinStrategy::kAuto;
  }
  if (needs_advisor) {
    advice_ = JoinAdvisor::AdvisePlan(root, options_.advisor);
  }

  std::set<std::string> root_required;
  for (const auto& name : root.group_by) root_required.insert(name);
  for (const auto& agg : root.aggs) {
    if (agg.op != AggDef::Op::kCountStar) root_required.insert(agg.input);
  }

  if (options_.late_materialization) {
    late_columns_ = internal::ComputeLateColumns(root);
    // Keep only columns this query actually defers.
    for (auto it = late_columns_.begin(); it != late_columns_.end();) {
      if (!root_required.count(*it)) {
        it = late_columns_.erase(it);
      } else {
        ++it;
      }
    }
  }

  // The pipeline carries everything required except late columns, plus the
  // tuple ids needed to fetch them afterwards.
  std::set<std::string> early_required;
  std::set<const Table*> late_tables;
  for (const auto& name : root_required) {
    if (late_columns_.count(name)) {
      late_tables.insert(refs_[name].source_table);
    } else {
      early_required.insert(name);
    }
  }
  for (const Table* table : late_tables) {
    early_required.insert(TableScanSource::TidColumnName(table->name()));
  }

  Stream s = Lower(*root.child, early_required);

  if (!late_columns_.empty()) {
    // One LateLoadOp fetches all deferred columns right before the
    // aggregation (the paper's late-load operator).
    std::vector<RowField> extra;
    std::map<const Table*, LateLoadOp::Fetch> fetches;
    int next_field = s.layout->num_fields();
    for (const auto& name : Sorted(late_columns_)) {
      const ColumnRef& ref = refs_[name];
      extra.push_back(RowField{name, ref.type, ref.width, 0});
      LateLoadOp::Fetch& fetch = fetches[ref.source_table];
      fetch.table = ref.source_table;
      fetch.table_cols.push_back(ref.source_table->schema().IndexOf(name));
      fetch.out_fields.push_back(next_field++);
    }
    const RowLayout* out = ExtendLayout(s.layout, std::move(extra));
    std::vector<LateLoadOp::Fetch> fetch_list;
    for (auto& [table, fetch] : fetches) {
      fetch.tid_field =
          s.layout->IndexOf(TableScanSource::TidColumnName(table->name()));
      fetch_list.push_back(std::move(fetch));
    }
    operators_.push_back(
        std::make_unique<LateLoadOp>(std::move(fetch_list), s.layout, out));
    s.pipeline->AddOperator(operators_.back().get());
    s.layout = out;
  }

  operators_.push_back(
      std::make_unique<HashAggOp>(s.layout, root.group_by, root.aggs));
  root_agg_ = static_cast<HashAggOp*>(operators_.back().get());
  s.pipeline->AddOperator(root_agg_);
  CompletePipeline(s.pipeline);
}

QueryResult Lowerer::Run(ThreadPool& pool, QueryStats* stats) {
  ExecContext exec(&pool);
  Stopwatch watch;
  for (Pipeline* pipeline : run_order_) {
    pipeline->Run(exec);
  }
  double seconds = watch.ElapsedSeconds();

  // Final observability snapshot: scan actuals in lowering order (the
  // traversal EXPLAIN ANALYZE replays), join records in post-order.
  QueryMetrics& qm = exec.metrics();
  for (TableScanSource* scan : scans_) {
    ScanMetrics sm;
    sm.table = scan->MetricsDetail();
    sm.rows_scanned = scan->rows_scanned();
    sm.rows_passed = scan->rows_passed();
    sm.encoded = scan->encoded();
    sm.enc_read_width = scan->enc_read_width();
    sm.plain_read_width = scan->plain_read_width();
    sm.values_decoded = scan->values_decoded();
    sm.codes_emitted = scan->codes_emitted();
    qm.AddScan(std::move(sm));
  }
  std::vector<JoinMetrics> joins;
  for (const auto& fn : metrics_fns_) {
    JoinMetrics m = fn(qm);
    for (const CodedKeyPlan& plan : coded_keys_) {
      if (plan.join_index == m.join_id) ++m.coded_key_pairs;
    }
    joins.push_back(std::move(m));
  }
  qm.SetJoins(std::move(joins));
  qm.SetSummary(seconds, exec.source_tuples(), root_agg_->result().num_rows(),
                exec.timer(), exec.MergedBytes());
  const MemoryGovernor& gov = MemoryGovernor::Global();
  if (gov.budget() > 0) {
    qm.governor = {gov.budget(), gov.high_water(), gov.denials()};
  }
  qm.simd_tier = SimdTierName(ActiveSimdTier());
  if (rewrite_info_ != nullptr && rewrite_info_->changed) {
    RewriteMetrics& r = qm.rewrite;
    r.rules = rewrite_info_->RulesLine();
    r.order = rewrite_info_->order;
    r.filters_pulled = rewrite_info_->filters_pulled;
    r.filters_pushed = rewrite_info_->filters_pushed;
    r.joins_reordered = rewrite_info_->joins_reordered;
    r.blooms_planted = rewrite_info_->blooms_planted;
    for (const BloomProbeOp* op : bloom_probe_ops_) {
      r.bloom_dropped += op->dropped();
    }
  }
  for (const Table* table : scanned_tables_) {
    const TableStats* ts = ColumnCatalog::Global().Get(*table);
    if (ts == nullptr) continue;
    ++qm.stats.tables;
    for (const ColumnStats& cs : ts->columns) {
      if (cs.distinct > 0 || cs.histogram.valid()) ++qm.stats.columns;
    }
  }

  if (stats != nullptr) {
    stats->metrics = qm;
    stats->seconds = seconds;
    stats->source_tuples = exec.source_tuples();
    stats->result_rows = root_agg_->result().num_rows();
    stats->phase_timer = exec.timer();
    stats->bytes = exec.MergedBytes();
    stats->bloom_dropped = 0;
    stats->partition_bytes = 0;
    for (const JoinMetrics& j : qm.joins()) {
      stats->bloom_dropped += j.bloom.negatives;
      stats->partition_bytes +=
          j.build_side.output_bytes + j.probe_side.output_bytes;
    }
  }
  return root_agg_->TakeResult();
}

}  // namespace

namespace internal {

std::set<std::string> ComputeLateColumns(const PlanNode& root) {
  PJOIN_CHECK(root.kind == PlanNode::Kind::kAgg);
  std::map<std::string, ColumnRef> refs;
  CollectRefs(root, &refs);
  std::set<std::string> early;
  CollectEarlyUses(root, &early);

  std::set<std::string> root_required;
  for (const auto& name : root.group_by) root_required.insert(name);
  for (const auto& agg : root.aggs) {
    if (agg.op != AggDef::Op::kCountStar) root_required.insert(agg.input);
  }

  std::set<std::string> late;
  for (const auto& name : root_required) {
    if (early.count(name)) continue;
    auto it = refs.find(name);
    if (it == refs.end()) continue;
    if (it->second.source_table == nullptr) continue;  // computed or mark
    if (name.find(".#tid") != std::string::npos) continue;
    late.insert(name);
  }
  return late;
}

}  // namespace internal

QueryResult ExecuteQuery(const PlanNode& root, const ExecOptions& options,
                         QueryStats* stats, ThreadPool* pool) {
  // Every catalog lookup of this query, from the rewrite to the scans'
  // set-up, validates against one fingerprint per table.
  FingerprintScope fingerprints;
  std::unique_ptr<ThreadPool> owned;
  if (pool == nullptr) {
    owned = std::make_unique<ThreadPool>(
        options.num_threads > 0 ? options.num_threads : DefaultThreads());
    pool = owned.get();
  }
  const int threads = pool->num_threads();
  // The rewrite pass runs between plan construction and lowering. When it
  // declines every rule (or is disabled) the original tree lowers as
  // written, keeping pre-rewrite behavior byte-identical.
  RewriteResult rewrite = RewritePlan(root, options.rewrite);
  const PlanNode& exec_root =
      rewrite.plan != nullptr ? *rewrite.plan : root;
  Lowerer lowerer(options, threads);
  if (rewrite.plan != nullptr) lowerer.set_rewrite_info(&rewrite.info);
  lowerer.LowerQuery(exec_root);
  return lowerer.Run(*pool, stats);
}

}  // namespace pjoin
