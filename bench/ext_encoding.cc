// Extension: encoded column segments + join-on-codes measured end to end.
//
// Two sweeps, each executed with PJOIN_ENCODING off and on (the knob is
// re-read per query, so a setenv flip switches the whole path):
//   * every join-bearing TPC-H query — FOR-coded integer scans shrink the
//     bytes each scan reads per tuple; the columns report both widths,
//   * a generated CHAR-key star join (dictionary-friendly: wide keys, low
//     cardinality) where the join itself runs on remapped 4-byte codes.
// The encoded sweep runs first so each sweep's peak-RSS sample is taken
// while its own working set is the process high-water mark (ru_maxrss is
// monotonic; reversing the order would hide the encoded savings).
#include <sys/resource.h>

#include "bench/bench_common.h"
#include "stats/stats_catalog.h"
#include "storage/encoded_segment.h"
#include "util/rng.h"

namespace pjoin {
namespace {

std::string Ms(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f", seconds * 1e3);
  return buf;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

struct Paired {
  double off_seconds = 0;
  double on_seconds = 0;
  double speedup = 0;
};

// Interleaved off/on rounds; the speedup is the median of the per-round
// ratios, which cancels host drift (same idea as bench_common PairedDelta).
Paired MeasurePaired(const std::function<double()>& run_off,
                     const std::function<double()>& run_on, int reps) {
  run_off();  // warm-up
  run_on();
  std::vector<double> off, on, ratio;
  for (int r = 0; r < reps; ++r) {
    off.push_back(run_off());
    on.push_back(run_on());
    ratio.push_back(on.back() > 0 ? off.back() / on.back() : 0);
  }
  return Paired{Median(off), Median(on), Median(ratio)};
}

std::string SpeedupCell(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2fx", ratio);
  return buf;
}

// Scan bytes per source tuple from the on-leg's encoding section (which
// carries both the encoded and the would-be-plain byte counts).
std::string BytesPerTuple(uint64_t bytes, uint64_t tuples) {
  if (tuples == 0 || bytes == 0) return "-";  // no scan engaged encoding
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f",
                static_cast<double>(bytes) / static_cast<double>(tuples));
  return buf;
}

double PeakRssMb() {
  struct rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace
}  // namespace pjoin

int main() {
  using namespace pjoin;
  const int64_t divisor = WorkloadScaleDivisor();
  const int reps = BenchRepetitions();
  const int threads = DefaultThreads();
  bench::PrintHeader(
      "Extension: encoded segments + join-on-codes (off vs on)",
      "extension of Bandle et al. Section 5.2 (bytes/tuple dominate join "
      "cost)",
      "identical plans executed with PJOIN_ENCODING off/on; kAuto strategy");

  ThreadPool pool(threads);
  auto run_off = [](const std::function<double()>& fn) {
    setenv("PJOIN_ENCODING", "0", 1);
    double s = fn();
    unsetenv("PJOIN_ENCODING");
    return s;
  };

  // --- dictionary-friendly CHAR-key star join (encoded leg first) --------
  // dim(CHAR(16) key, payload) |><| fact(CHAR(16) fk, grp, val): the keys
  // dictionary-encode to 2-byte scan codes and the join probes remapped
  // 4-byte codes instead of hashing 16-byte strings.
  const int64_t fact_rows = 8000000 / divisor;
  const int64_t dim_rows = 200000 / divisor;
  const uint64_t key_universe = static_cast<uint64_t>(dim_rows);
  Table dim("enc_dim", Schema({{"d_key", DataType::kChar, 16},
                               {"d_val", DataType::kInt64, 0}}));
  Rng rng(17);
  for (int64_t i = 0; i < dim_rows; ++i) {
    dim.column(0).AppendString("part#" + std::to_string(i));
    dim.column(1).AppendInt64(static_cast<int64_t>(rng.Below(1000)));
    dim.FinishRow();
  }
  Table fact("enc_fact", Schema({{"f_key", DataType::kChar, 16},
                                 {"f_grp", DataType::kInt64, 0},
                                 {"f_val", DataType::kInt64, 0}}));
  for (int64_t i = 0; i < fact_rows; ++i) {
    fact.column(0).AppendString("part#" +
                                std::to_string(rng.Below(key_universe)));
    fact.column(1).AppendInt64(static_cast<int64_t>(rng.Below(64)));
    fact.column(2).AppendInt64(static_cast<int64_t>(rng.Below(1000)));
    fact.FinishRow();
  }
  auto star = Aggregate(
      Join(ScanTable(&dim), ScanTable(&fact), {{"d_key", "f_key"}}),
      {"f_grp"}, {AggDef::CountStar("n"), AggDef::Sum("d_val", "sd"),
                  AggDef::Sum("f_val", "sf")});

  std::printf("--- CHAR(16)-key star join, dim=%lld fact=%lld rows ---\n",
              static_cast<long long>(dim_rows),
              static_cast<long long>(fact_rows));
  TablePrinter micro({"strategy", "off [ms]", "on [ms]", "speedup",
                      "B/tup off", "B/tup on", "coded pairs"});
  for (JoinStrategy strategy : {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                                JoinStrategy::kAuto}) {
    ExecOptions opts = bench::Options(strategy, threads);
    QueryStats stats_on;
    Paired p = MeasurePaired(
        [&] {
          return run_off([&] {
            QueryStats s;
            ExecuteQuery(*star, opts, &s, &pool);
            return s.seconds;
          });
        },
        [&] {
          QueryStats s;
          ExecuteQuery(*star, opts, &s, &pool);
          stats_on = s;
          return s.seconds;
        },
        reps);
    const EncodingMetrics enc = stats_on.metrics.encoding();
    micro.AddRow(
        {JoinStrategyName(strategy), Ms(p.off_seconds), Ms(p.on_seconds),
         SpeedupCell(p.speedup),
         BytesPerTuple(enc.plain_read_bytes, stats_on.source_tuples),
         BytesPerTuple(enc.scan_read_bytes, stats_on.source_tuples),
         std::to_string(enc.coded_join_pairs)});
    bench::DumpMetrics(std::string("ext_encoding star ") +
                           JoinStrategyName(strategy),
                       stats_on);
  }
  micro.Print();

  // --- TPC-H sweep --------------------------------------------------------
  const double sf = GetEnvDouble("PJOIN_SF", 0.05);
  auto db = GenerateTpch(sf);
  std::printf("\n--- TPC-H, scale factor %.3g ---\n", sf);
  TablePrinter tpch({"query", "off [ms]", "on [ms]", "speedup", "B/tup off",
                     "B/tup on", "coded pairs"});
  const double rss_before_tpch = PeakRssMb();
  for (const TpchQuery& query : TpchQueries()) {
    ExecOptions opts = bench::Options(JoinStrategy::kAuto, threads);
    QueryStats stats_on;
    Paired p = MeasurePaired(
        [&] {
          return run_off([&] {
            QueryStats s;
            query.run(*db, opts, &s, &pool);
            return s.seconds;
          });
        },
        [&] {
          QueryStats s;
          query.run(*db, opts, &s, &pool);
          stats_on = s;
          return s.seconds;
        },
        reps);
    const EncodingMetrics enc = stats_on.metrics.encoding();
    tpch.AddRow(
        {"Q" + std::to_string(query.id), Ms(p.off_seconds), Ms(p.on_seconds),
         SpeedupCell(p.speedup),
         BytesPerTuple(enc.plain_read_bytes, stats_on.source_tuples),
         BytesPerTuple(enc.scan_read_bytes, stats_on.source_tuples),
         std::to_string(enc.coded_join_pairs)});
    bench::DumpMetrics("ext_encoding Q" + std::to_string(query.id), stats_on);
  }
  tpch.Print();
  std::printf(
      "\npeak RSS: %.1f MB before TPC-H sweep, %.1f MB after (high-water "
      "includes data generation; B/tup columns carry the bandwidth story)\n",
      rss_before_tpch, PeakRssMb());
  EncodingCatalog::Global().Invalidate();
  StatsCatalog::Global().Invalidate();
  return 0;
}
