// Extension experiment (paper footnote 11): JCC-H-style skewed TPC-H.
//
// "JCC-H provides a more realistic drop-in replacement for TPC-H with skew.
// It puts even more pressure on the radix join." We regenerate TPC-H with
// Zipf-distributed o_custkey / l_partkey foreign keys and rerun the queries
// whose dominant joins consume those keys, comparing BHJ vs BRJ on uniform
// and skewed data.
#include "bench/bench_common.h"

int main() {
  using namespace pjoin;
  const double sf = BenchScaleFactor();
  const double skew = GetEnvDouble("PJOIN_TPCH_SKEW", 0.9);
  const int reps = BenchRepetitions();
  const int threads = DefaultThreads();
  bench::PrintHeader(
      "Extension: JCC-H-style skewed TPC-H (footnote 11)",
      "Bandle et al., Section 6 discussion",
      "SF " + std::to_string(sf) + ", fk Zipf z=" + std::to_string(skew));

  auto uniform = GenerateTpch(sf);
  auto skewed = GenerateTpch(sf, /*seed=*/19, /*fk_skew=*/skew);
  ThreadPool pool(threads);

  // The advisor's skew estimate of the Zipf'd foreign keys goes to the metrics
  // side-channel, so the JSON records what skew the queries actually faced.
  bench::DumpSkewEstimate("ext_skewed_tpch_o_custkey", skewed->orders,
                          skewed->orders.schema().Find("o_custkey"));
  bench::DumpSkewEstimate("ext_skewed_tpch_l_partkey", skewed->lineitem,
                          skewed->lineitem.schema().Find("l_partkey"));

  // Tail latency (p99 of per-join wall time) alongside the medians: under
  // skew the radix join's slowest rep diverges from its median much faster
  // than the BHJ's does.
  TablePrinter table({"query", "BHJ uni [ms]", "BRJ uni [ms]",
                      "BHJ skew [ms]", "BHJ skew p99", "BRJ skew [ms]",
                      "BRJ skew p99", "BRJ penalty from skew"});
  for (int qid : {3, 5, 9, 10, 14, 18}) {  // custkey/partkey-heavy queries
    const TpchQuery& query = GetTpchQuery(qid);
    QueryStats bhj_u = bench::MeasureTpch(
        query, *uniform, bench::Options(JoinStrategy::kBHJ, threads), reps,
        &pool);
    QueryStats brj_u = bench::MeasureTpch(
        query, *uniform, bench::Options(JoinStrategy::kBRJ, threads), reps,
        &pool);
    std::vector<double> bhj_s_reps, brj_s_reps;
    QueryStats bhj_s = bench::MeasureTpch(
        query, *skewed, bench::Options(JoinStrategy::kBHJ, threads), reps,
        &pool, &bhj_s_reps);
    QueryStats brj_s = bench::MeasureTpch(
        query, *skewed, bench::Options(JoinStrategy::kBRJ, threads), reps,
        &pool, &brj_s_reps);
    bench::DumpMetrics("ext_skewed_tpch_q" + std::to_string(qid) + "_bhj",
                       bhj_s);
    bench::DumpMetrics("ext_skewed_tpch_q" + std::to_string(qid) + "_brj",
                       brj_s);
    // How much more the BRJ slows down under skew than the BHJ does.
    double brj_ratio = brj_s.seconds / brj_u.seconds;
    double bhj_ratio = bhj_s.seconds / bhj_u.seconds;
    table.AddRow({"Q" + std::to_string(qid),
                  TablePrinter::Double(bhj_u.seconds * 1e3, 1),
                  TablePrinter::Double(brj_u.seconds * 1e3, 1),
                  TablePrinter::Double(bhj_s.seconds * 1e3, 1),
                  bench::P99Ms(bhj_s_reps),
                  TablePrinter::Double(brj_s.seconds * 1e3, 1),
                  bench::P99Ms(brj_s_reps),
                  TablePrinter::Percent(brj_ratio / bhj_ratio - 1.0)});
  }
  table.Print();
  std::printf(
      "\nexpected shape: skew helps the BHJ (cache locality on hot keys)\n"
      "and unbalances the BRJ's partitions, so the last column trends\n"
      "positive — real-world-like data pushes further against partitioning.\n");
  return 0;
}
