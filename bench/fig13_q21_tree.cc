// Figure 13: the Q21 join tree annotated with build and probe sizes.
//
// We execute Q21 once under BHJ and print every join's measured build/probe
// cardinalities and byte volumes in post-order — the annotation of the
// paper's left-deep tree.
#include "bench/bench_common.h"

int main() {
  using namespace pjoin;
  const double sf = BenchScaleFactor();
  bench::PrintHeader("Figure 13: Q21 join tree, build and probe sizes",
                     "Bandle et al., Figure 13",
                     "TPC-H SF " + std::to_string(sf));

  auto db = GenerateTpch(sf);
  ThreadPool pool(DefaultThreads());
  QueryStats stats;
  GetTpchQuery(21).run(*db, bench::Options(JoinStrategy::kBHJ,
                                           pool.num_threads()),
                       &stats, &pool);

  TablePrinter table({"join", "kind", "build tuples", "build size",
                      "probe tuples", "probe size", "partners"});
  for (const auto& audit : stats.metrics.joins()) {
    table.AddRow(
        {std::to_string(audit.join_id + 1), JoinKindName(audit.kind),
         std::to_string(audit.build_tuples),
         TablePrinter::Mib(static_cast<double>(audit.build_bytes())),
         std::to_string(audit.probe_tuples),
         TablePrinter::Mib(static_cast<double>(audit.probe_bytes())),
         TablePrinter::Double(audit.match_fraction() * 100, 1) + "%"});
  }
  table.Print();
  std::printf(
      "\npaper shape (SF 100): a left-deep tree — a tiny nation⋈supplier\n"
      "join, then supplier⋈lineitem at 1 MB : 6 GB, orders at ~1:2, the\n"
      "exists-check at ~1:2, and the anti-check against lineitem again.\n"
      "(Our joins 4/5 probe the order-level supplier spans instead of raw\n"
      "lineitem — see the Q21 decomposition note in DESIGN.md.)\n");
  return 0;
}
