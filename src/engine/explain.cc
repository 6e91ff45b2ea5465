#include "engine/explain.h"

#include <cmath>
#include <cstdio>
#include <map>
#include <sstream>

#include "engine/advisor.h"
#include "storage/table.h"

namespace pjoin {

namespace {

std::string Fixed(double v, int digits = 3) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

std::string HumanBytes(uint64_t bytes) {
  if (bytes >= (uint64_t{1} << 20)) {
    return Fixed(static_cast<double>(bytes) / (1 << 20), 1) + "MiB";
  }
  if (bytes >= (uint64_t{1} << 10)) {
    return Fixed(static_cast<double>(bytes) / (1 << 10), 1) + "KiB";
  }
  return std::to_string(bytes) + "B";
}

const char* PredicateOpName(ScanPredicate::Op op) {
  switch (op) {
    case ScanPredicate::Op::kEq: return "=";
    case ScanPredicate::Op::kNe: return "<>";
    case ScanPredicate::Op::kLt: return "<";
    case ScanPredicate::Op::kLe: return "<=";
    case ScanPredicate::Op::kGt: return ">";
    case ScanPredicate::Op::kGe: return ">=";
    case ScanPredicate::Op::kBetween: return "between";
    case ScanPredicate::Op::kInSet: return "in";
    case ScanPredicate::Op::kStrEq: return "=";
    case ScanPredicate::Op::kStrNe: return "<>";
    case ScanPredicate::Op::kStrPrefix: return "like 'x%'";
    case ScanPredicate::Op::kStrSuffix: return "like '%x'";
    case ScanPredicate::Op::kStrContains: return "like '%x%'";
    case ScanPredicate::Op::kStrNotContains: return "not like '%x%'";
    case ScanPredicate::Op::kStrIn: return "in";
    case ScanPredicate::Op::kColLt: return "< col";
    case ScanPredicate::Op::kColNe: return "<> col";
  }
  return "?";
}

// Assigns each join node its executor id: post-order, build side first —
// the numbering of Figure 12 and of ExecOptions::join_overrides.
void NumberJoins(const PlanNode& node, std::map<const PlanNode*, int>* ids,
                 int* next) {
  switch (node.kind) {
    case PlanNode::Kind::kScan:
      return;
    case PlanNode::Kind::kFilter:
    case PlanNode::Kind::kMap:
    case PlanNode::Kind::kAgg:
      NumberJoins(*node.child, ids, next);
      return;
    case PlanNode::Kind::kJoin:
      NumberJoins(*node.build, ids, next);
      NumberJoins(*node.probe, ids, next);
      (*ids)[&node] = (*next)++;
      return;
  }
}

// kAuto resolution for EXPLAIN: the advisor walks the plan in the same
// post-order as NumberJoins and the executor, so looking decisions up by id
// is exact — EXPLAIN shows precisely what the executor would run.
bool UsesAuto(const ExecOptions& options) {
  if (options.join_strategy == JoinStrategy::kAuto) return true;
  for (const auto& entry : options.join_overrides) {
    if (entry.second == JoinStrategy::kAuto) return true;
  }
  return false;
}

std::string AutoLabel(const JoinDecision& d) {
  return std::string("auto:") + JoinStrategyName(d.choice);
}

// The advisor sub-line: estimates, layout widths, modeled costs in
// single-threaded ns (rounded to whole ns; a profile pins them in tests), and
// the decision reason. A decision settled by a hard rule is not costed.
void RenderAdvisorLine(const JoinDecision& d, int depth, bool fell_back,
                       const JoinMetrics* jm, std::ostringstream* out) {
  for (int i = 0; i < depth + 1; ++i) *out << "  ";
  *out << "advisor: est_build=" << d.est_build_rows
       << " est_probe=" << d.est_probe_rows << " widths=" << d.build_width
       << "B/" << d.probe_width << "B depth=" << d.probe_depth
       << " ht=" << HumanBytes(d.est_ht_bytes);
  if (d.cost_bhj > 0) {
    *out << " pass=" << Fixed(d.est_pass_rate, 3)
         << " cost_ns[bhj=" << static_cast<uint64_t>(std::llround(d.cost_bhj))
         << " rj=" << static_cast<uint64_t>(std::llround(d.cost_rj))
         << " brj=" << static_cast<uint64_t>(std::llround(d.cost_brj)) << "]";
  }
  *out << " -- " << d.reason;
  if (jm != nullptr && jm->advisor.present) {
    // Estimate quality against the observed counts.
    const double qb = EstimateQError(d.est_build_rows, jm->build_tuples);
    const double qp = EstimateQError(d.est_probe_rows, jm->probe_tuples);
    *out << " qerr[build=" << Fixed(qb, 3) << " probe=" << Fixed(qp, 3)
         << "]";
    if (qb >= kMispredictQError || qp >= kMispredictQError) {
      *out << " MISPREDICT";
    }
  }
  if (fell_back) *out << " [fell back to BHJ: build overflowed estimate]";
  *out << "\n";
  if (d.skew_sampled) {
    for (int i = 0; i < depth + 1; ++i) *out << "  ";
    *out << "skew: sample=" << d.skew_sample_rows
         << " top_share=" << Fixed(d.est_top_share, 3)
         << " max_part_share=" << Fixed(d.est_max_partition_share, 3)
         << "\n";
  }
}

// One tree walk serves EXPLAIN and EXPLAIN ANALYZE: with `metrics` null it
// renders the plan alone, otherwise every node also carries the actuals the
// run recorded. Scans are matched positionally: the executor records
// ScanMetrics in lowering order (build side before probe side), which is
// exactly the traversal order below; joins are matched by post-order id.
struct RenderState {
  RenderState(const ExecOptions& o, const QueryMetrics* m)
      : options(o), metrics(m) {}

  const ExecOptions& options;
  const QueryMetrics* metrics;
  std::map<const PlanNode*, int> ids;
  std::map<int, JoinDecision> advice;
  size_t scan_cursor = 0;
  // Occurrence cursor per (operator name, detail), for filter/map matching.
  std::map<std::pair<std::string, std::string>, size_t> op_cursor;
  std::ostringstream out;
};

// Appends " (rows_in=.. rows_out=..)" of the next not-yet-matched operator
// registered as (name, detail), if there is one.
void AppendOperatorActuals(const std::string& name, const std::string& detail,
                           RenderState* st) {
  const size_t nth = st->op_cursor[{name, detail}]++;
  size_t seen = 0;
  for (const OperatorMetrics& op : st->metrics->operators()) {
    if (op.name() != name || op.detail() != detail) continue;
    if (seen++ < nth) continue;
    OperatorTotals t = op.Totals();
    st->out << " (rows_in=" << t.rows_in << " rows_out=" << t.rows_out << ")";
    return;
  }
}

// The per-join actuals lines under a join; each appears only when the join
// has something to report there.
void RenderJoinActuals(const JoinMetrics& jm, int depth,
                       std::ostringstream& out) {
  auto indent = [&] {
    for (int i = 0; i < depth + 1; ++i) out << "  ";
  };
  if (jm.replan.enabled) {
    const ReplanMetrics& r = jm.replan;
    indent();
    // Deliberately avoids the phrase "fell back": a replan switch is a
    // re-costed decision, not the overflow guardrail tripping.
    out << "replan: plan=" << JoinStrategyName(jm.advisor.choice)
        << " final=" << JoinStrategyName(r.final_choice)
        << " qerr_build=" << Fixed(r.qerror_build, 3)
        << " qerr_probe=" << Fixed(r.qerror_probe, 3)
        << " staged=" << r.staged_build_tuples
        << " probe_corrected=" << r.corrected_probe_tuples;
    if (r.triggered) {
      out << " (triggered" << (r.switched ? ", switched)" : ", confirmed)");
    } else {
      out << " (not triggered)";
    }
    out << "\n";
  }
  if (jm.has_hash_table) {
    const HashTableMetrics& ht = jm.hash_table;
    indent();
    out << "ht: entries=" << ht.build_tuples
        << " dir_slots=" << ht.directory_slots
        << " chained=" << ht.chained_entries
        << " mem=" << HumanBytes(ht.directory_bytes + ht.materialized_bytes)
        << "\n";
  }
  if (jm.has_partitions) {
    const PartitionerMetrics& b = jm.build_side;
    const PartitionerMetrics& p = jm.probe_side;
    indent();
    out << "radix: " << b.num_partitions << " partitions (" << b.bits1 << "+"
        << b.bits2 << " bits)"
        << " build_part=" << b.tuples << " probe_part=" << p.tuples
        << " swwcb_flushes=" << (b.swwcb_flushes + p.swwcb_flushes)
        << " streamed=" << HumanBytes(b.streamed_bytes + p.streamed_bytes)
        << " mem=" << HumanBytes(b.output_bytes + p.output_bytes)
        << " ht_grows=" << jm.partition_ht_grows
        << " ht_peak=" << HumanBytes(jm.partition_ht_peak_bytes) << "\n";
  }
  if (jm.bloom.probes > 0) {
    const BloomMetrics& bl = jm.bloom;
    indent();
    out << "bloom: size=" << HumanBytes(bl.size_bytes)
        << " probes=" << bl.probes << " negatives=" << bl.negatives
        << " pass_rate=" << Fixed(bl.pass_rate(), 3);
    if (bl.adaptive) {
      out << " adaptive=" << (bl.enabled_at_end ? "kept" : "disabled")
          << " samples=" << bl.adaptive_samples;
    }
    out << "\n";
  }
  if (jm.spill.partitions_spilled > 0) {
    const SpillMetrics& sp = jm.spill;
    indent();
    out << "spill: partitions=" << sp.partitions_spilled << "/"
        << sp.partitions_total
        << " build_tuples=" << sp.build_tuples_spilled
        << " probe_tuples=" << sp.probe_tuples_spilled
        << " written=" << HumanBytes(sp.bytes_written)
        << " read=" << HumanBytes(sp.bytes_read)
        << " depth=" << sp.max_recursion_depth;
    if (sp.compressed) {
      out << " physical_written=" << HumanBytes(sp.physical_bytes_written)
          << " physical_read=" << HumanBytes(sp.physical_bytes_read);
    }
    out << "\n";
  }
}

void Render(const PlanNode& node, int depth, RenderState* st) {
  std::ostringstream& out = st->out;
  const QueryMetrics* qm = st->metrics;
  for (int i = 0; i < depth; ++i) out << "  ";
  switch (node.kind) {
    case PlanNode::Kind::kAgg:
      out << "aggregate [groups:" << node.group_by.size()
          << " aggs:" << node.aggs.size() << "]";
      if (qm != nullptr) {
        out << " (rows_in=" << qm->TotalsFor("hash_agg").rows_in
            << " rows_out=" << qm->result_rows() << ")";
      }
      out << "\n";
      Render(*node.child, depth + 1, st);
      break;
    case PlanNode::Kind::kJoin: {
      const int id = st->ids.at(&node);
      JoinStrategy strategy = st->options.join_strategy;
      auto it = st->options.join_overrides.find(id);
      if (it != st->options.join_overrides.end()) strategy = it->second;
      const JoinDecision* adv = nullptr;
      if (strategy == JoinStrategy::kAuto) {
        auto ad = st->advice.find(id);
        if (ad != st->advice.end()) adv = &ad->second;
      }
      out << "join #" << id << " [" << JoinKindName(node.join_kind) << ", "
          << (adv != nullptr ? AutoLabel(*adv)
                             : std::string(JoinStrategyName(strategy)))
          << "] on ";
      for (size_t k = 0; k < node.keys.size(); ++k) {
        if (k > 0) out << ", ";
        out << node.keys[k].first << " = " << node.keys[k].second;
      }
      const JoinMetrics* jm = qm != nullptr ? qm->FindJoin(id) : nullptr;
      if (jm != nullptr) {
        out << " (build=" << jm->build_tuples << " probe=" << jm->probe_tuples
            << " matched=" << jm->probe_matched << " rows_out=" << jm->rows_out;
        if (jm->coded_key_pairs > 0) {
          out << " coded_keys=" << jm->coded_key_pairs;
        }
        out << ")";
      }
      out << "\n";
      if (adv != nullptr) {
        // Estimated vs actual rows sit on adjacent lines so mispredictions
        // are visible; a triggered guardrail is flagged inline.
        const bool fell_back =
            jm != nullptr && jm->advisor.present && jm->advisor.fell_back;
        RenderAdvisorLine(*adv, depth, fell_back, jm, &out);
      }
      if (jm != nullptr) RenderJoinActuals(*jm, depth, out);
      Render(*node.build, depth + 1, st);
      Render(*node.probe, depth + 1, st);
      break;
    }
    case PlanNode::Kind::kFilter:
      out << "filter ["
          << (node.filter.label.empty() ? "lambda" : node.filter.label)
          << "]";
      if (qm != nullptr) AppendOperatorActuals("filter", node.filter.label, st);
      out << "\n";
      Render(*node.child, depth + 1, st);
      break;
    case PlanNode::Kind::kMap:
      out << "map [";
      for (size_t m = 0; m < node.maps.size(); ++m) {
        if (m > 0) out << ", ";
        out << node.maps[m].name;
      }
      out << "]";
      if (qm != nullptr) {
        AppendOperatorActuals(
            "map", node.maps.empty() ? std::string() : node.maps.front().name,
            st);
      }
      out << "\n";
      Render(*node.child, depth + 1, st);
      break;
    case PlanNode::Kind::kScan: {
      out << "scan " << node.table->name() << " [" << node.table->num_rows()
          << " rows";
      for (const auto& pred : node.predicates) {
        out << ", " << pred.column << " " << PredicateOpName(pred.op);
      }
      for (const auto& plant : node.bloom_probes) {
        out << ", bloom(j" << plant.source_join << "." << plant.probe_column
            << ")";
      }
      out << "]";
      if (qm != nullptr) {
        if (st->scan_cursor < qm->scans().size() &&
            qm->scans()[st->scan_cursor].table == node.table->name()) {
          const ScanMetrics& sm = qm->scans()[st->scan_cursor];
          out << " (scanned=" << sm.rows_scanned
              << " passed=" << sm.rows_passed;
          if (sm.encoded) {
            out << " enc_width=" << sm.enc_read_width << "B/"
                << sm.plain_read_width << "B decoded=" << sm.values_decoded
                << " codes=" << sm.codes_emitted;
          }
          out << ")";
        }
        ++st->scan_cursor;
      }
      out << "\n";
      break;
    }
  }
}

// The part EXPLAIN and EXPLAIN ANALYZE share: applies the same deterministic
// rewrite the executor applies (so the rendered tree, join ids, and advisor
// advice match the executed plan), then renders the rewrite line and the
// tree, annotated with `metrics` when non-null.
std::string RenderPlan(const PlanNode& root, const ExecOptions& options,
                       const QueryMetrics* metrics,
                       std::map<int, JoinDecision>* advice = nullptr) {
  FingerprintScope fingerprints;
  RewriteResult rewrite = RewritePlan(root, options.rewrite);
  const PlanNode& plan = rewrite.plan != nullptr ? *rewrite.plan : root;
  RenderState st{options, metrics};
  int next = 0;
  NumberJoins(plan, &st.ids, &next);
  if (UsesAuto(options)) {
    st.advice = JoinAdvisor::AdvisePlan(plan, options.advisor);
  }
  if (rewrite.info.changed) {
    st.out << "rewrite: rules=" << rewrite.info.RulesLine();
    if (!rewrite.info.order.empty()) st.out << " order=" << rewrite.info.order;
    if (metrics != nullptr) {
      st.out << " bloom_dropped=" << metrics->rewrite.bloom_dropped;
    }
    st.out << "\n";
  }
  Render(plan, 0, &st);
  if (advice != nullptr) *advice = std::move(st.advice);
  return st.out.str();
}

// Modeled cost of the strategy a join ran, in single-threaded ns.
double CostOf(const JoinDecision& d, JoinStrategy ran) {
  switch (ran) {
    case JoinStrategy::kBHJ: return d.cost_bhj;
    case JoinStrategy::kRJ: return d.cost_rj;
    default: return d.cost_brj;
  }
}

}  // namespace

std::string ExplainPlan(const PlanNode& root, const ExecOptions& options) {
  return RenderPlan(root, options, nullptr);
}

std::string ExplainAnalyzePlan(const PlanNode& root, const ExecOptions& options,
                               const QueryStats& stats) {
  const QueryMetrics& qm = stats.metrics;
  std::ostringstream out;
  std::map<int, JoinDecision> advice;
  out << RenderPlan(root, options, &qm, &advice);
  out << "\ntotal: " << Fixed(qm.seconds() * 1e3, 3) << "ms"
      << " source_tuples=" << qm.source_tuples()
      << " result_rows=" << qm.result_rows()
      << " threads=" << qm.num_threads();
  if (!qm.simd_tier.empty()) out << " simd=" << qm.simd_tier;
  out << "\n";

  // The cost profile calibration this query's planning paid for, then each
  // costed advised join's predicted time (its strategy's cost spread over
  // the workers) beside the time its pipelines took.
  if (qm.calibrated_joins() > 0) {
    out << "advisor: calibration=" << Fixed(qm.calibration_ms(), 3)
        << "ms joins=" << qm.calibrated_joins() << "\n";
  }
  for (const auto& [id, d] : advice) {
    const JoinMetrics* jm = qm.FindJoin(id);
    if (jm == nullptr || d.cost_bhj <= 0) continue;
    const double predicted_ms =
        CostOf(d, jm->strategy) / qm.num_threads() / 1e6;
    out << "join #" << id << " " << JoinStrategyName(jm->strategy)
        << ": predicted=" << Fixed(predicted_ms, 3)
        << "ms measured=" << Fixed(jm->seconds * 1e3, 3) << "ms\n";
  }

  // Server-mode section (only for runs submitted through QueryServer):
  // admission identity, queue wait, and the arbitration outcome.
  if (qm.server.has_value()) {
    const ServerMetrics& s = *qm.server;
    out << "server: query=" << s.query_id << " session=" << s.session_id
        << " state=" << s.state
        << " queued=" << Fixed(s.queue_seconds * 1e3, 3) << "ms"
        << " granted_bytes=" << s.granted_bytes
        << " spill_pressure=" << s.spill_pressure << "\n";
  }

  out << "pipelines:\n";
  for (size_t i = 0; i < qm.pipelines().size(); ++i) {
    const PipelineMetrics& pm = qm.pipelines()[i];
    out << "  #" << i << " " << pm.label << " [" << JoinPhaseName(pm.phase)
        << "] wall=" << Fixed(pm.wall_seconds * 1e3, 3)
        << "ms finish=" << Fixed(pm.finish_seconds * 1e3, 3)
        << "ms cpu=" << Fixed(pm.cpu_seconds() * 1e3, 3)
        << "ms morsels=" << pm.total_morsels() << " per_worker=[";
    for (size_t w = 0; w < pm.morsels_per_worker.size(); ++w) {
      if (w > 0) out << ", ";
      out << pm.morsels_per_worker[w];
    }
    out << "]\n";
    for (const OperatorMetrics& op : qm.operators()) {
      if (op.pipeline_index() != static_cast<int>(i)) continue;
      OperatorTotals t = op.Totals();
      out << "      " << op.name();
      if (!op.detail().empty()) out << " " << op.detail();
      out << ": rows_in=" << t.rows_in << " rows_out=" << t.rows_out
          << " batches_out=" << t.batches_out << "\n";
    }
  }
  return out.str();
}

}  // namespace pjoin
