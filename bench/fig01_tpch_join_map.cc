// Figure 1: relative performance of the Bloom-filtered partitioned join vs
// the non-partitioned hash join for EVERY join of TPC-H, labeled Q<id>-J<n>
// and broken down by build/probe side size.
//
// Methodology (Sections 1 and 5.3.2): for every join j of every query, flip
// only j from BHJ to BRJ and report the pairwise change in total query time;
// the paper plots this against the join's build/probe bytes with the LLC
// boundary marked.
#include "bench/bench_common.h"
#include "util/cpu_info.h"

int main() {
  using namespace pjoin;
  const double sf = BenchScaleFactor();
  const int reps = BenchRepetitions();
  const int threads = DefaultThreads();
  bench::PrintHeader(
      "Figure 1: BRJ vs BHJ for every TPC-H join",
      "Bandle et al., Figure 1",
      "TPC-H SF " + std::to_string(sf) + "; positive = BRJ faster");

  auto db = GenerateTpch(sf);
  ThreadPool pool(threads);
  const int64_t llc = GetCpuInfo().llc_bytes;
  std::printf("LLC: %s — builds below this line need no partitioning\n\n",
              TablePrinter::Mib(static_cast<double>(llc)).c_str());

  TablePrinter table({"join", "kind", "build bytes", "probe bytes",
                      "build<LLC", "BRJ vs BHJ"});
  int total_joins = 0;
  int brj_wins = 0;
  for (const TpchQuery& query : TpchQueries()) {
    // One all-BHJ run provides the per-join audits.
    ExecOptions base_options = bench::Options(JoinStrategy::kBHJ, threads);
    QueryStats base;
    query.run(*db, base_options, &base, &pool);
    for (int j = 0; j < query.num_joins; ++j) {
      ExecOptions mixed = base_options;
      mixed.join_overrides[j] = JoinStrategy::kBRJ;
      // Paired interleaved timing — per-join flips move total query time by
      // a few percent at most, far below unpaired run-to-run drift.
      double delta = bench::PairedDelta(
          [&] {
            QueryStats stats;
            query.run(*db, base_options, &stats, &pool);
            return stats.seconds;
          },
          [&] {
            QueryStats stats;
            query.run(*db, mixed, &stats, &pool);
            return stats.seconds;
          },
          reps);
      const JoinMetrics& audit = base.metrics.joins()[j];
      if (delta > 0.10) ++brj_wins;
      ++total_joins;
      table.AddRow({"Q" + std::to_string(query.id) + "-J" +
                        std::to_string(j + 1),
                    JoinKindName(audit.kind),
                    std::to_string(audit.build_bytes()),
                    std::to_string(audit.probe_bytes()),
                    audit.build_bytes() < static_cast<uint64_t>(llc) ? "yes"
                                                                     : "no",
                    TablePrinter::Percent(delta)});
    }
  }
  table.Print();
  std::printf(
      "\n%d joins measured; BRJ gave a >10%% total-time win on %d of them.\n"
      "paper shape (SF 100): a noticeable BRJ improvement in only 1 of 59\n"
      "joins (Q22-J1); most TPC-H builds fit the LLC, where partitioning\n"
      "cannot pay off.\n",
      total_joins, brj_wins);
  return 0;
}
