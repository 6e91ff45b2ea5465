// Extension: the algebraic rewrite layer (DP join reordering + distant
// semi-join/Bloom pushdown) measured end to end.
//
// Two sweeps, each executed with the rewrite pass off and on:
//   * every join-bearing TPC-H query on its hand-written plan — reordering
//     only fires when the statistics-costed order strictly beats the
//     written one, so the expected wins come from distant Bloom plants on
//     the deep probe chains (Q21-shaped trees),
//   * a generated dim -> mid -> big chain whose selective dimension sits
//     one join above the mid scan, swept over the fraction of mid's key
//     domain the dimension covers: the planted filter's pass rate. At
//     frac = 1.0 the cost gate must decline the plant (speedup ~1.0x).
// Columns: median wall ms off/on, speedup, rules fired (final step), and
// probe rows dropped by planted filters before any intermediate join.
#include "bench/bench_common.h"
#include "stats/stats_catalog.h"
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

// Interleaved off/on rounds; the speedup is the median of the per-round
// ratios, which cancels the host drift that dominates absolute medians for
// ms-scale queries (same idea as bench_common's PairedDelta).
struct Paired {
  double off_seconds = 0;
  double on_seconds = 0;
  double speedup = 0;
};

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

std::string RulesCell(const QueryStats& stats) {
  const std::string& rules = stats.metrics.rewrite.rules;
  return rules.empty() ? "-" : rules;
}

}  // namespace
}  // namespace pjoin

int main() {
  using namespace pjoin;
  const int64_t divisor = WorkloadScaleDivisor();
  const int reps = BenchRepetitions();
  const int threads = DefaultThreads();
  bench::PrintHeader(
      "Extension: query rewrite layer (reorder + distant Bloom pushdown)",
      "extension of Bandle et al. Section 3 (semi-join reduction in a real "
      "system)",
      "identical plans executed with PJOIN_REWRITE off/on; BHJ everywhere so "
      "only the rewrite differs");

  ThreadPool pool(threads);

  // --- TPC-H sweep -------------------------------------------------------
  const double sf = GetEnvDouble("PJOIN_SF", 0.05);
  auto db = GenerateTpch(sf);
  std::printf("--- TPC-H, scale factor %.3g ---\n", sf);
  TablePrinter tpch({"query", "off [ms]", "on [ms]", "speedup", "rules",
                     "bloom dropped"});
  for (const TpchQuery& query : TpchQueries()) {
    ExecOptions off = bench::Options(JoinStrategy::kBHJ, threads);
    off.rewrite.enabled = 0;
    ExecOptions on = off;
    on.rewrite.enabled = 1;
    QueryStats stats_on;
    Paired p = MeasurePaired(
        [&] {
          QueryStats s;
          query.run(*db, off, &s, &pool);
          return s.seconds;
        },
        [&] {
          QueryStats s;
          query.run(*db, on, &s, &pool);
          stats_on = s;
          return s.seconds;
        },
        reps);
    tpch.AddRow({"Q" + std::to_string(query.id), Ms(p.off_seconds),
                 Ms(p.on_seconds), SpeedupCell(p.speedup),
                 RulesCell(stats_on),
                 std::to_string(stats_on.metrics.rewrite.bloom_dropped)});
  }
  tpch.Print();

  // --- generated chain sweep --------------------------------------------
  // dim(d_k selective) |><| (mid(m_k, m_f) |><| big(b_f, b_v)): the Bloom
  // filter planted on the mid scan shrinks the lower join's build side by
  // the dimension's selectivity before a single intermediate tuple flows.
  const int64_t big_rows = 4000000 / divisor;
  const int64_t mid_rows = 400000 / divisor;
  // Domains scale with the rows so mid covers its whole key domain at any
  // divisor and the dimension's coverage fraction equals the filter's true
  // pass rate.
  const int64_t key_domain = std::max<int64_t>(1024, 65536 / divisor);
  const int64_t fk_domain = std::max<int64_t>(256, 16384 / divisor);
  std::printf("\n--- generated chain, big=%lld mid=%lld rows ---\n",
              static_cast<long long>(big_rows),
              static_cast<long long>(mid_rows));
  TablePrinter chain({"dim coverage", "off [ms]", "on [ms]", "speedup",
                      "rules", "bloom dropped"});
  for (double frac : {0.1, 0.25, 0.5, 1.0}) {
    const int64_t dim_rows = static_cast<int64_t>(frac * key_domain);
    Table dim("rwb_dim", Schema({{"d_k", DataType::kInt64, 0}}));
    for (int64_t k = 0; k < dim_rows; ++k) {
      dim.column(0).AppendInt64(k);
      dim.FinishRow();
    }
    Rng rng(31);
    Table mid("rwb_mid", Schema({{"m_k", DataType::kInt64, 0},
                                 {"m_f", DataType::kInt64, 0}}));
    for (int64_t i = 0; i < mid_rows; ++i) {
      mid.column(0).AppendInt64(
          static_cast<int64_t>(rng.Below(static_cast<uint64_t>(key_domain))));
      mid.column(1).AppendInt64(
          static_cast<int64_t>(rng.Below(static_cast<uint64_t>(fk_domain))));
      mid.FinishRow();
    }
    Table big("rwb_big", Schema({{"b_f", DataType::kInt64, 0},
                                 {"b_v", DataType::kInt64, 0}}));
    for (int64_t i = 0; i < big_rows; ++i) {
      big.column(0).AppendInt64(
          static_cast<int64_t>(rng.Below(static_cast<uint64_t>(fk_domain))));
      big.column(1).AppendInt64(static_cast<int64_t>(rng.Next() & 0xFF));
      big.FinishRow();
    }
    auto lower = Join(ScanTable(&mid), ScanTable(&big), {{"m_f", "b_f"}});
    auto upper = Join(ScanTable(&dim), std::move(lower), {{"d_k", "m_k"}});
    auto plan = Aggregate(std::move(upper), {},
                          {AggDef::CountStar("n"), AggDef::Sum("b_v", "s")});

    ExecOptions off = bench::Options(JoinStrategy::kBHJ, threads);
    off.rewrite.enabled = 0;
    ExecOptions on = off;
    on.rewrite.enabled = 1;
    // The written order is already optimal for this shape; keep reordering
    // out of the measurement so the sweep isolates the Bloom plant.
    on.rewrite.join_reorder = false;
    QueryStats stats_on;
    Paired p = MeasurePaired(
        [&] {
          QueryStats s;
          ExecuteQuery(*plan, off, &s, &pool);
          return s.seconds;
        },
        [&] {
          QueryStats s;
          ExecuteQuery(*plan, on, &s, &pool);
          stats_on = s;
          return s.seconds;
        },
        reps);
    char cov[16];
    std::snprintf(cov, sizeof(cov), "%.0f%%", frac * 100);
    chain.AddRow({cov, Ms(p.off_seconds), Ms(p.on_seconds),
                  SpeedupCell(p.speedup), RulesCell(stats_on),
                  std::to_string(stats_on.metrics.rewrite.bloom_dropped)});
    StatsCatalog::Global().Invalidate();  // tables die with this iteration
  }
  chain.Print();
  return 0;
}
