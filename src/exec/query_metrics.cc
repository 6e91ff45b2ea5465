#include "exec/query_metrics.h"

#include <algorithm>
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

const char* Bool(bool v) { return v ? "true" : "false"; }

void AppendBloom(std::ostringstream& out, const BloomMetrics& bloom) {
  out << "{\"applicable\":" << Bool(bloom.applicable)
      << ",\"size_bytes\":" << bloom.size_bytes
      << ",\"num_blocks\":" << bloom.num_blocks
      << ",\"build_keys\":" << bloom.build_keys
      << ",\"probes\":" << bloom.probes
      << ",\"negatives\":" << bloom.negatives << ",\"pass_rate\":";
  AppendDouble(out, bloom.pass_rate());
  out << ",\"adaptive\":" << Bool(bloom.adaptive)
      << ",\"enabled_at_end\":" << Bool(bloom.enabled_at_end)
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

void QueryMetrics::SetJoins(std::vector<JoinMetrics> joins) {
  joins_ = std::move(joins);
  std::stable_sort(joins_.begin(), joins_.end(),
                   [](const JoinMetrics& a, const JoinMetrics& b) {
                     return a.join_id < b.join_id;
                   });
}

void QueryMetrics::FollowStep(const QueryMetrics& earlier, int join_offset) {
  const int shift = static_cast<int>(earlier.pipelines_.size());
  for (OperatorMetrics& op : operators_) {
    if (op.pipeline_index_ >= 0) op.pipeline_index_ += shift;
  }
  for (JoinMetrics& j : joins_) j.join_id += join_offset;
  pipelines_.insert(pipelines_.begin(), earlier.pipelines_.begin(),
                    earlier.pipelines_.end());
  operators_.insert(operators_.begin(), earlier.operators_.begin(),
                    earlier.operators_.end());
  joins_.insert(joins_.begin(), earlier.joins_.begin(), earlier.joins_.end());
}

const JoinMetrics* QueryMetrics::FindJoin(int join_id) const {
  for (const JoinMetrics& j : joins_) {
    if (j.join_id == join_id) return &j;
  }
  return nullptr;
}

int QueryMetrics::calibrated_joins() const {
  int n = 0;
  for (const JoinMetrics& j : joins_) n += j.advisor.calibration_ms > 0;
  return n;
}

double QueryMetrics::calibration_ms() const {
  double ms = 0;
  for (const JoinMetrics& j : joins_) ms += j.advisor.calibration_ms;
  return ms;
}

EncodingMetrics QueryMetrics::encoding() const {
  EncodingMetrics e;
  for (const ScanMetrics& s : scans_) {
    if (!s.encoded) continue;
    ++e.scans_encoded;
    e.values_decoded += s.values_decoded;
    e.codes_emitted += s.codes_emitted;
    e.scan_read_bytes += s.rows_scanned * s.enc_read_width;
    e.plain_read_bytes += s.rows_scanned * s.plain_read_width;
  }
  for (const JoinMetrics& j : joins_) {
    e.coded_join_pairs += j.coded_key_pairs;
    if (j.spill.compressed) {
      e.spill_bytes_logical += j.spill.bytes_written;
      e.spill_bytes_physical += j.spill.physical_bytes_written;
    }
  }
  return e;
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
  out << "{\"num_threads\":" << num_threads_ << ",\"simd\":";
  AppendString(out, simd_tier);
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
        << ",\"rows_passed\":" << s.rows_passed
        << ",\"encoded\":" << Bool(s.encoded)
        << ",\"read_width\":" << s.enc_read_width
        << ",\"plain_width\":" << s.plain_read_width
        << ",\"values_decoded\":" << s.values_decoded
        << ",\"codes_emitted\":" << s.codes_emitted << "}";
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
        << ",\"rows_out\":" << j.rows_out
        << ",\"coded_key_pairs\":" << j.coded_key_pairs
        << ",\"build_width\":" << j.build_width
        << ",\"probe_width\":" << j.probe_width;
    if (include_timings) {
      out << ",\"seconds\":";
      AppendDouble(out, j.seconds);
    }
    const HashTableMetrics& h = j.hash_table;
    out << ",\"hash_table\":{\"build_tuples\":" << h.build_tuples
        << ",\"directory_slots\":" << h.directory_slots
        << ",\"directory_bytes\":" << h.directory_bytes
        << ",\"materialized_bytes\":" << h.materialized_bytes
        << ",\"chained_entries\":" << h.chained_entries << "}";
    out << ",\"build_partitions\":";
    AppendPartitioner(out, j.build_side);
    out << ",\"probe_partitions\":";
    AppendPartitioner(out, j.probe_side);
    out << ",\"partition_ht_grows\":" << j.partition_ht_grows
        << ",\"partition_ht_peak_bytes\":" << j.partition_ht_peak_bytes;
    out << ",\"bloom\":";
    AppendBloom(out, j.bloom);
    const SpillMetrics& sp = j.spill;
    out << ",\"spill\":{\"partitions_spilled\":" << sp.partitions_spilled
        << ",\"partitions_total\":" << sp.partitions_total
        << ",\"build_tuples_spilled\":" << sp.build_tuples_spilled
        << ",\"probe_tuples_spilled\":" << sp.probe_tuples_spilled
        << ",\"bytes_written\":" << sp.bytes_written
        << ",\"bytes_read\":" << sp.bytes_read
        << ",\"max_recursion_depth\":" << sp.max_recursion_depth << "}";
    if (j.advisor.present) {
      const AdvisorMetrics& a = j.advisor;
      out << ",\"advisor\":{\"choice\":\"" << JoinStrategyName(a.choice)
          << "\",\"est_build_tuples\":" << a.est_build_tuples
          << ",\"est_probe_tuples\":" << a.est_probe_tuples
          << ",\"cost_bhj\":";
      AppendDouble(out, a.cost_bhj);
      out << ",\"cost_rj\":";
      AppendDouble(out, a.cost_rj);
      out << ",\"cost_brj\":";
      AppendDouble(out, a.cost_brj);
      out << ",\"reason\":";
      AppendString(out, a.reason);
      out << ",\"skew_sampled\":" << Bool(a.skew_sampled)
          << ",\"est_top_share\":";
      AppendDouble(out, a.est_top_share);
      out << ",\"est_max_partition_share\":";
      AppendDouble(out, a.est_max_partition_share);
      // Estimate quality: symmetric q-errors of the cardinality estimates
      // against the observed counts.
      const double qb = EstimateQError(a.est_build_tuples, j.build_tuples);
      const double qp = EstimateQError(a.est_probe_tuples, j.probe_tuples);
      out << ",\"qerror_build\":";
      AppendDouble(out, qb);
      out << ",\"qerror_probe\":";
      AppendDouble(out, qp);
      out << ",\"mispredict\":"
          << Bool(qb >= kMispredictQError || qp >= kMispredictQError) << "}";
    }
    out << "}";
  }
  out << "]";

  out << ",\"rewrite\":{\"rules\":";
  AppendString(out, rewrite.rules);
  out << ",\"order\":";
  AppendString(out, rewrite.order);
  out << ",\"filters_pulled\":" << rewrite.filters_pulled
      << ",\"filters_pushed\":" << rewrite.filters_pushed
      << ",\"joins_reordered\":" << rewrite.joins_reordered
      << ",\"blooms_planted\":" << rewrite.blooms_planted
      << ",\"bloom_dropped\":" << rewrite.bloom_dropped << "}";
  out << ",\"advisor\":{\"calibrated_joins\":" << calibrated_joins();
  if (include_timings) {
    out << ",\"calibration_ms\":";
    AppendDouble(out, calibration_ms());
  }
  out << "}";
  out << ",\"stats\":{\"tables\":" << stats.tables
      << ",\"columns\":" << stats.columns << "}";
  const EncodingMetrics e = encoding();
  out << ",\"encoding\":{\"scans_encoded\":" << e.scans_encoded
      << ",\"coded_join_pairs\":" << e.coded_join_pairs
      << ",\"values_decoded\":" << e.values_decoded
      << ",\"codes_emitted\":" << e.codes_emitted
      << ",\"scan_read_bytes\":" << e.scan_read_bytes
      << ",\"plain_read_bytes\":" << e.plain_read_bytes
      << ",\"spill_bytes_logical\":" << e.spill_bytes_logical
      << ",\"spill_bytes_physical\":" << e.spill_bytes_physical << "}";
  out << ",\"governor\":{\"budget\":" << governor.budget
      << ",\"high_water\":" << governor.high_water
      << ",\"denials\":" << governor.denials << "}";
  if (server.has_value()) {
    out << ",\"server\":{\"query_id\":" << server->query_id
        << ",\"session\":" << server->session_id << ",\"state\":";
    AppendString(out, server->state);
    out << ",\"granted_bytes\":" << server->granted_bytes
        << ",\"spill_pressure\":" << server->spill_pressure;
    if (include_timings) {
      out << ",\"queue_seconds\":";
      AppendDouble(out, server->queue_seconds);
    }
    out << "}";
  }
  out << "}";
  return out.str();
}

}  // namespace pjoin
