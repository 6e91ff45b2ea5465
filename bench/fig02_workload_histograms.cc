// Figure 2: tuple size and join-partner distributions — TPC-H vs prior work.
//
// The paper's Figure 2 motivates the whole study: prior work benchmarks
// narrow tuples (8-16 B) at 100% join partners, while TPC-H joins see wide
// tuples and low selectivities. We run every TPC-H query once (BHJ), collect
// the per-join audits, and print both histograms next to the prior-work
// values.
#include <map>

#include "bench/bench_common.h"

int main() {
  using namespace pjoin;
  const double sf = BenchScaleFactor();
  bench::PrintHeader("Figure 2: Tuple Size and Join Partners in TPC-H",
                     "Bandle et al., Figure 2",
                     "TPC-H SF " + std::to_string(sf));

  auto db = GenerateTpch(sf);
  ThreadPool pool(DefaultThreads());
  ExecOptions options = bench::Options(JoinStrategy::kBHJ, pool.num_threads());

  std::vector<JoinMetrics> audits;
  for (const TpchQuery& query : TpchQueries()) {
    QueryStats stats;
    query.run(*db, options, &stats, &pool);
    for (const auto& audit : stats.metrics.joins()) audits.push_back(audit);
  }
  std::printf("collected %zu joins across %zu queries (paper: 59 joins)\n\n",
              audits.size(), TpchQueries().size());

  // Histogram of probe tuple widths (payload size), 8-byte buckets.
  std::map<int, int> width_hist;
  std::map<int, int> partner_hist;  // 10% buckets
  for (const auto& audit : audits) {
    width_hist[static_cast<int>(audit.probe_width / 8) * 8]++;
    partner_hist[static_cast<int>(audit.match_fraction() * 10) * 10]++;
  }

  TablePrinter widths({"probe tuple size [B]", "TPC-H joins [%]",
                       "prior work [%]"});
  for (const auto& [bucket, count] : width_hist) {
    double pct = 100.0 * count / audits.size();
    // Prior work: all tuples are 8 or 16 bytes (Table 1).
    double prior = (bucket == 8 || bucket == 16) ? 50.0 : 0.0;
    widths.AddRow({std::to_string(bucket) + "-" + std::to_string(bucket + 7),
                   TablePrinter::Double(pct, 1), TablePrinter::Double(prior, 1)});
  }
  widths.Print();
  std::printf("\n");

  TablePrinter partners({"join partners [%]", "TPC-H joins [%]",
                         "prior work [%]"});
  for (int bucket = 0; bucket <= 100; bucket += 10) {
    auto it = partner_hist.find(bucket);
    double pct = it == partner_hist.end()
                     ? 0.0
                     : 100.0 * it->second / audits.size();
    double prior = bucket == 100 ? 100.0 : 0.0;
    partners.AddRow({std::to_string(bucket) + "-" + std::to_string(bucket + 9),
                     TablePrinter::Double(pct, 1),
                     TablePrinter::Double(prior, 1)});
  }
  partners.Print();

  std::printf(
      "\npaper shape: prior work concentrates at 8-16 B / 100%% partners;\n"
      "TPC-H spreads over wide tuples and low join-partner fractions.\n");
  return 0;
}
