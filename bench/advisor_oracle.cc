// Advisor oracle: kAuto's per-join decisions vs a measured per-join oracle.
//
// For every join of every TPC-H query we time the all-BHJ plan against the
// plan with only that join flipped to BRJ (the paired-flip methodology of
// Figures 1 and 12) and declare the oracle pick: partitioned only when the
// flip is clearly faster. The advisor agrees when it partitions exactly
// where the oracle does. The paper's headline result — the radix join wins
// in only 1 of 59 TPC-H joins — predicts agreement near 100%; the
// acceptance floor for kAuto is 90%.
#include <algorithm>
#include <cmath>
#include <vector>

#include "bench/bench_common.h"

int main() {
  using namespace pjoin;
  const double sf = BenchScaleFactor();
  // The oracle's verdict is only as good as its measurement: at the default
  // scale factor a single query runs for tens of milliseconds, so we insist
  // on at least five repetitions per flip regardless of PJOIN_REPS.
  const int reps = std::max(5, BenchRepetitions());
  const int threads = DefaultThreads();
  bench::PrintHeader(
      "Advisor oracle: kAuto vs measured per-join oracle",
      "Bandle et al., Figure 1 (the 59-join map) as a decision-quality check",
      "TPC-H SF " + std::to_string(sf) +
          "; oracle = paired BHJ-vs-BRJ flip per join");

  auto db = GenerateTpch(sf);
  ThreadPool pool(threads);

  // Partitioning must beat BHJ by this much before the oracle endorses it:
  // below the noise floor, the paper's asymmetry argument ("when in doubt,
  // do not partition") applies to the oracle as well.
  constexpr double kOracleMargin = 0.02;

  int total = 0;
  int agree = 0;
  int auto_partitioned = 0;
  int oracle_partitioned = 0;
  for (const TpchQuery& query : TpchQueries()) {
    // What kAuto actually ran, join by join (audits are post-fallback, in
    // the query-global post-order numbering).
    ExecOptions auto_options = bench::Options(JoinStrategy::kAuto, threads);
    QueryStats auto_stats;
    query.run(*db, auto_options, &auto_stats, &pool);

    ExecOptions base_options = bench::Options(JoinStrategy::kBHJ, threads);
    const auto run_base = [&] {
      QueryStats stats;
      query.run(*db, base_options, &stats, &pool);
      return stats.seconds;
    };
    // Calibrate this query's noise floor with a self-flip: a "paired delta"
    // between two identical all-BHJ runs measures pure run-to-run variance.
    // A real flip has to clear that, not just the static margin.
    const double noise = std::fabs(bench::PairedDelta(run_base, run_base, reps));
    const double threshold = std::max(kOracleMargin, 2.0 * noise);

    TablePrinter table({"join #", "kAuto ran", "oracle", "flip delta",
                        "agree"});
    for (int j = 0; j < query.num_joins; ++j) {
      ExecOptions mixed = base_options;
      mixed.join_overrides[j] = JoinStrategy::kBRJ;
      // Positive delta = flipping this join to the partitioned side made
      // the whole query faster. Interleave the runs and demand a consistent
      // win: the median must clear the noise-calibrated threshold and every
      // repetition must favor the flip, mirroring how the paper only counts
      // a join for the radix side when the gap is unambiguous.
      std::vector<double> deltas;
      deltas.reserve(reps);
      run_base();  // warm-up
      for (int r = 0; r < reps; ++r) {
        const double a = run_base();
        QueryStats stats;
        query.run(*db, mixed, &stats, &pool);
        const double b = stats.seconds;
        deltas.push_back((a - b) / a);
      }
      std::sort(deltas.begin(), deltas.end());
      const double delta = deltas[deltas.size() / 2];
      const bool oracle_partition = delta > threshold && deltas.front() > 0;
      const JoinStrategy ran = auto_stats.metrics.joins()[j].strategy;
      const bool auto_partition = ran != JoinStrategy::kBHJ;
      const bool match = auto_partition == oracle_partition;
      ++total;
      if (match) ++agree;
      if (auto_partition) ++auto_partitioned;
      if (oracle_partition) ++oracle_partitioned;
      table.AddRow({std::to_string(j + 1), JoinStrategyName(ran),
                    oracle_partition ? "partition" : "BHJ",
                    TablePrinter::Percent(delta), match ? "yes" : "NO"});
    }
    std::printf("Q%d (%s)\n", query.id, query.name.c_str());
    table.Print();
    std::printf("\n");
  }

  const double pct = total > 0 ? 100.0 * agree / total : 0;
  std::printf("kAuto vs oracle: %d/%d joins agree (%.1f%%), target >= 90%%\n",
              agree, total, pct);
  std::printf("partitioned picks: kAuto %d, oracle %d of %d joins\n",
              auto_partitioned, oracle_partitioned, total);
  std::printf(
      "paper shape: the oracle partitions almost nowhere (1 of 59 in the\n"
      "paper's runs), so an advisor biased against partitioning agrees\n"
      "nearly everywhere.\n");
  return pct >= 90.0 ? 0 : 1;
}
