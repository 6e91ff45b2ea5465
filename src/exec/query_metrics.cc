#include "exec/query_metrics.h"

#include <cstdio>
#include <sstream>

namespace pjoin {

namespace {

// Phase identifiers for JSON output: lower_snake, stable across releases
// (JoinPhaseName returns human-oriented labels with spaces).
const char* PhaseKey(JoinPhase phase) {
  switch (phase) {
    case JoinPhase::kBuildPipeline: return "build_pipeline";
    case JoinPhase::kPartitionPass1: return "partition_pass1";
    case JoinPhase::kHistogramScan: return "histogram_scan";
    case JoinPhase::kPartitionPass2: return "partition_pass2";
    case JoinPhase::kJoin: return "join";
    case JoinPhase::kProbePipeline: return "probe_pipeline";
    case JoinPhase::kNumPhases: break;
  }
  return "unknown";
}

void AppendDouble(std::ostringstream& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6f", v);
  out << buf;
}

void AppendString(std::ostringstream& out, const std::string& s) {
  out << '"';
  for (char c : s) {
    switch (c) {
      case '"': out << "\\\""; break;
      case '\\': out << "\\\\"; break;
      case '\n': out << "\\n"; break;
      case '\t': out << "\\t"; break;
      default: out << c;
    }
  }
  out << '"';
}

void AppendBloom(std::ostringstream& out, const BloomMetrics& bloom) {
  out << "{\"applicable\":" << (bloom.applicable ? "true" : "false")
      << ",\"size_bytes\":" << bloom.size_bytes
      << ",\"num_blocks\":" << bloom.num_blocks
      << ",\"build_keys\":" << bloom.build_keys
      << ",\"probes\":" << bloom.probes
      << ",\"negatives\":" << bloom.negatives << ",\"pass_rate\":";
  AppendDouble(out, bloom.pass_rate());
  out << ",\"adaptive\":" << (bloom.adaptive ? "true" : "false")
      << ",\"enabled_at_end\":" << (bloom.enabled_at_end ? "true" : "false")
      << ",\"adaptive_samples\":" << bloom.adaptive_samples << "}";
}

void AppendPartitioner(std::ostringstream& out, const PartitionerMetrics& p) {
  out << "{\"bits1\":" << p.bits1 << ",\"bits2\":" << p.bits2
      << ",\"num_partitions\":" << p.num_partitions
      << ",\"tuples\":" << p.tuples
      << ",\"output_bytes\":" << p.output_bytes
      << ",\"swwcb_flushes\":" << p.swwcb_flushes
      << ",\"streamed_bytes\":" << p.streamed_bytes
      << ",\"max_partition_tuples\":" << p.max_partition_tuples
      << ",\"min_partition_tuples\":" << p.min_partition_tuples << "}";
}

}  // namespace

PipelineMetrics* QueryMetrics::StartPipeline(const std::string& label,
                                             JoinPhase phase) {
  pipelines_.emplace_back();
  PipelineMetrics& p = pipelines_.back();
  p.label = label;
  p.phase = phase;
  p.morsels_per_worker.assign(num_threads_, 0);
  p.worker_seconds.assign(num_threads_, 0);
  return &p;
}

OperatorMetrics* QueryMetrics::RegisterOperator(const std::string& name,
                                                const std::string& detail) {
  int pipeline_index =
      pipelines_.empty() ? -1 : static_cast<int>(pipelines_.size()) - 1;
  operators_.emplace_back(name, detail, pipeline_index, num_threads_);
  return &operators_.back();
}

void QueryMetrics::SetSummary(double seconds, uint64_t source_tuples,
                              uint64_t result_rows, const PhaseTimer& timer,
                              const ByteCounter& bytes) {
  seconds_ = seconds;
  source_tuples_ = source_tuples;
  result_rows_ = result_rows;
  timer_ = timer;
  bytes_ = bytes;
}

const JoinMetrics* QueryMetrics::FindJoin(int join_id) const {
  for (const JoinMetrics& j : joins_) {
    if (j.join_id == join_id) return &j;
  }
  return nullptr;
}

OperatorTotals QueryMetrics::TotalsFor(const std::string& name) const {
  OperatorTotals sum;
  for (const OperatorMetrics& op : operators_) {
    if (op.name() != name) continue;
    OperatorTotals t = op.Totals();
    sum.rows_in += t.rows_in;
    sum.rows_out += t.rows_out;
    sum.batches_in += t.batches_in;
    sum.batches_out += t.batches_out;
  }
  return sum;
}

std::string QueryMetrics::ToJson(bool include_timings) const {
  std::ostringstream out;
  out << "{\"num_threads\":" << num_threads_;
  if (!simd_tier_.empty()) {
    out << ",\"simd\":\"" << simd_tier_ << "\"";
  }
  if (include_timings) {
    out << ",\"seconds\":";
    AppendDouble(out, seconds_);
  }
  out << ",\"source_tuples\":" << source_tuples_
      << ",\"result_rows\":" << result_rows_;

  out << ",\"phases\":[";
  for (int i = 0; i < static_cast<int>(JoinPhase::kNumPhases); ++i) {
    JoinPhase phase = static_cast<JoinPhase>(i);
    if (i > 0) out << ",";
    out << "{\"name\":\"" << PhaseKey(phase) << "\"";
    if (include_timings) {
      out << ",\"seconds\":";
      AppendDouble(out, timer_.seconds(phase));
    }
    const PhaseBytes& b = bytes_.phase(phase);
    out << ",\"read_bytes\":" << b.read << ",\"written_bytes\":" << b.written
        << "}";
  }
  out << "]";

  out << ",\"pipelines\":[";
  for (size_t i = 0; i < pipelines_.size(); ++i) {
    const PipelineMetrics& p = pipelines_[i];
    if (i > 0) out << ",";
    out << "{\"label\":";
    AppendString(out, p.label);
    out << ",\"phase\":\"" << PhaseKey(p.phase) << "\"";
    if (include_timings) {
      out << ",\"wall_seconds\":";
      AppendDouble(out, p.wall_seconds);
      out << ",\"finish_seconds\":";
      AppendDouble(out, p.finish_seconds);
      out << ",\"cpu_seconds\":";
      AppendDouble(out, p.cpu_seconds());
    }
    out << ",\"total_morsels\":" << p.total_morsels()
        << ",\"morsels_per_worker\":[";
    for (size_t w = 0; w < p.morsels_per_worker.size(); ++w) {
      if (w > 0) out << ",";
      out << p.morsels_per_worker[w];
    }
    out << "]}";
  }
  out << "]";

  out << ",\"operators\":[";
  for (size_t i = 0; i < operators_.size(); ++i) {
    const OperatorMetrics& op = operators_[i];
    OperatorTotals t = op.Totals();
    if (i > 0) out << ",";
    out << "{\"pipeline\":" << op.pipeline_index() << ",\"name\":";
    AppendString(out, op.name());
    out << ",\"detail\":";
    AppendString(out, op.detail());
    out << ",\"rows_in\":" << t.rows_in << ",\"rows_out\":" << t.rows_out
        << ",\"batches_in\":" << t.batches_in
        << ",\"batches_out\":" << t.batches_out << "}";
  }
  out << "]";

  out << ",\"scans\":[";
  for (size_t i = 0; i < scans_.size(); ++i) {
    const ScanMetrics& s = scans_[i];
    if (i > 0) out << ",";
    out << "{\"table\":";
    AppendString(out, s.table);
    out << ",\"rows_scanned\":" << s.rows_scanned
        << ",\"rows_passed\":" << s.rows_passed;
    if (s.encoded) {
      out << ",\"encoded\":true,\"read_width\":" << s.enc_read_width
          << ",\"plain_width\":" << s.plain_read_width
          << ",\"values_decoded\":" << s.values_decoded
          << ",\"codes_emitted\":" << s.codes_emitted;
    }
    out << "}";
  }
  out << "]";

  out << ",\"joins\":[";
  for (size_t i = 0; i < joins_.size(); ++i) {
    const JoinMetrics& j = joins_[i];
    if (i > 0) out << ",";
    out << "{\"join_id\":" << j.join_id << ",\"kind\":\""
        << JoinKindName(j.kind) << "\",\"strategy\":\""
        << JoinStrategyName(j.strategy)
        << "\",\"build_tuples\":" << j.build_tuples
        << ",\"probe_tuples\":" << j.probe_tuples
        << ",\"probe_matched\":" << j.probe_matched
        << ",\"rows_out\":" << j.rows_out;
    if (j.coded_key_pairs > 0) {
      out << ",\"coded_key_pairs\":" << j.coded_key_pairs;
    }
    if (j.has_hash_table) {
      const HashTableMetrics& h = j.hash_table;
      out << ",\"hash_table\":{\"build_tuples\":" << h.build_tuples
          << ",\"directory_slots\":" << h.directory_slots
          << ",\"directory_bytes\":" << h.directory_bytes
          << ",\"materialized_bytes\":" << h.materialized_bytes
          << ",\"chained_entries\":" << h.chained_entries
          << ",\"max_chain\":" << h.max_chain << ",\"resizes\":" << h.resizes
          << "}";
    }
    if (j.has_partitions) {
      out << ",\"build_partitions\":";
      AppendPartitioner(out, j.build_side);
      out << ",\"probe_partitions\":";
      AppendPartitioner(out, j.probe_side);
      out << ",\"partition_ht_grows\":" << j.partition_ht_grows
          << ",\"partition_ht_peak_bytes\":" << j.partition_ht_peak_bytes;
    }
    out << ",\"bloom\":";
    AppendBloom(out, j.bloom);
    if (j.spill.spilled) {
      const SpillMetrics& s = j.spill;
      out << ",\"spill\":{\"partitions_spilled\":" << s.partitions_spilled
          << ",\"partitions_total\":" << s.partitions_total
          << ",\"build_tuples_spilled\":" << s.build_tuples_spilled
          << ",\"probe_tuples_spilled\":" << s.probe_tuples_spilled
          << ",\"bytes_written\":" << s.bytes_written
          << ",\"bytes_read\":" << s.bytes_read
          << ",\"max_recursion_depth\":" << s.max_recursion_depth << "}";
    }
    if (j.skew.enabled) {
      const SkewDefenseMetrics& sk = j.skew;
      out << ",\"skew\":{\"heavy_hitters\":" << sk.heavy_hitters
          << ",\"bypass_build_tuples\":" << sk.bypass_build_tuples
          << ",\"bypass_probe_tuples\":" << sk.bypass_probe_tuples
          << ",\"partitions_resplit\":" << sk.partitions_resplit
          << ",\"dense_fallbacks\":" << sk.dense_fallbacks << "}";
    }
    if (j.advisor.present) {
      out << ",\"advisor\":{\"choice\":\""
          << JoinStrategyName(j.advisor.choice)
          << "\",\"est_build_tuples\":" << j.advisor.est_build_tuples
          << ",\"est_probe_tuples\":" << j.advisor.est_probe_tuples
          << ",\"cost_bhj\":";
      AppendDouble(out, j.advisor.cost_bhj);
      out << ",\"cost_rj\":";
      AppendDouble(out, j.advisor.cost_rj);
      out << ",\"cost_brj\":";
      AppendDouble(out, j.advisor.cost_brj);
      out << ",\"fell_back\":" << (j.advisor.fell_back ? "true" : "false")
          << ",\"reason\":";
      AppendString(out, j.advisor.reason);
      if (j.advisor.skew_sampled) {
        out << ",\"est_top_share\":";
        AppendDouble(out, j.advisor.est_top_share);
        out << ",\"est_max_partition_share\":";
        AppendDouble(out, j.advisor.est_max_partition_share);
        out << ",\"est_key_payload_corr\":";
        AppendDouble(out, j.advisor.est_key_payload_corr);
        out << ",\"skew_defense\":"
            << (j.advisor.skew_defense ? "true" : "false");
      }
      // Estimate quality: symmetric q-errors of the cardinality estimates
      // against the observed counts.
      const double qb =
          EstimateQError(j.advisor.est_build_tuples, j.build_tuples);
      const double qp =
          EstimateQError(j.advisor.est_probe_tuples, j.probe_tuples);
      out << ",\"qerror_build\":";
      AppendDouble(out, qb);
      out << ",\"qerror_probe\":";
      AppendDouble(out, qp);
      out << ",\"mispredict\":"
          << (qb >= kMispredictQError || qp >= kMispredictQError ? "true"
                                                                 : "false")
          << "}";
    }
    if (j.replan.enabled) {
      const ReplanMetrics& r = j.replan;
      out << ",\"replan\":{\"triggered\":" << (r.triggered ? "true" : "false")
          << ",\"switched\":" << (r.switched ? "true" : "false")
          << ",\"qerror_build\":";
      AppendDouble(out, r.qerror_build);
      out << ",\"qerror_probe\":";
      AppendDouble(out, r.qerror_probe);
      out << ",\"staged_build_tuples\":" << r.staged_build_tuples
          << ",\"corrected_probe_tuples\":" << r.corrected_probe_tuples
          << ",\"final\":\"" << JoinStrategyName(r.final_choice) << "\"";
      if (r.triggered) {
        out << ",\"recost_bhj\":";
        AppendDouble(out, r.recost_bhj);
        out << ",\"recost_rj\":";
        AppendDouble(out, r.recost_rj);
        out << ",\"recost_brj\":";
        AppendDouble(out, r.recost_brj);
      }
      out << "}";
    }
    out << "}";
  }
  out << "]";
  if (rewrite_present_) {
    out << ",\"rewrite\":{\"rules\":";
    AppendString(out, rewrite_rules_);
    out << ",\"order\":";
    AppendString(out, rewrite_order_);
    out << ",\"filters_pulled\":" << rewrite_filters_pulled_
        << ",\"filters_pushed\":" << rewrite_filters_pushed_
        << ",\"joins_reordered\":" << rewrite_joins_reordered_
        << ",\"blooms_planted\":" << rewrite_blooms_planted_
        << ",\"bloom_dropped\":" << rewrite_bloom_dropped_ << "}";
  }
  if (stats_present_) {
    out << ",\"stats\":{\"tables\":" << stats_tables_
        << ",\"columns\":" << stats_columns_
        << ",\"buckets\":" << stats_buckets_ << "}";
  }
  if (encoding_present_) {
    out << ",\"encoding\":{\"scans_encoded\":" << encoding_scans_encoded_
        << ",\"coded_join_pairs\":" << encoding_coded_join_pairs_
        << ",\"values_decoded\":" << encoding_values_decoded_
        << ",\"codes_emitted\":" << encoding_codes_emitted_
        << ",\"scan_read_bytes\":" << encoding_scan_read_bytes_
        << ",\"plain_read_bytes\":" << encoding_plain_read_bytes_;
    if (encoding_spill_bytes_logical_ > 0) {
      out << ",\"spill_bytes_logical\":" << encoding_spill_bytes_logical_
          << ",\"spill_bytes_physical\":" << encoding_spill_bytes_physical_;
    }
    out << "}";
  }
  if (governor_budget_ > 0) {
    out << ",\"governor\":{\"budget\":" << governor_budget_
        << ",\"high_water\":" << governor_high_water_
        << ",\"denials\":" << governor_denials_ << "}";
  }
  if (server_present_) {
    out << ",\"server\":{\"query_id\":" << server_query_id_
        << ",\"session\":" << server_session_id_ << ",\"state\":";
    AppendString(out, server_state_);
    out << ",\"granted_bytes\":" << server_granted_bytes_
        << ",\"spill_pressure\":" << server_spill_pressure_;
    if (include_timings) {
      out << ",\"queue_seconds\":";
      AppendDouble(out, server_queue_seconds_);
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace pjoin
