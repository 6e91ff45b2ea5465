// Extension: what a build misestimate costs when partition-or-not is decided
// once, at lowering.
//
// Workloads A and B with the advisor's build-side cardinality estimate
// multiplied by x1/16 .. x16 (PJOIN_EST_SCALE fault injection). Per factor
// the table shows kAuto's choice, the rule or cost that made it, and its
// time beside the measured oracle: the fastest manual strategy on the same
// input. Nothing re-decides at runtime — an undersold radix join keeps the
// fan-out sized for its estimate — so "vs oracle" is the whole price of the
// misestimate. Every run's result is checked against manual BHJ; the binary
// exits 1 on a mismatch.
#include "bench/bench_common.h"

int main() {
  using namespace pjoin;
  const int64_t divisor = WorkloadScaleDivisor();
  const int reps = BenchRepetitions();
  const int threads = DefaultThreads();
  bench::PrintHeader(
      "Extension: the cost of a build misestimate",
      "extension of Bandle et al. Section 5 (the cost of deciding wrong)",
      "workloads A and B, build estimate corrupted x1/16..x16; kAuto (one "
      "plan-time decision) vs measured oracle");

  ThreadPool pool(threads);
  struct Input {
    const char* name;
    MicroWorkload workload;
  };
  Input inputs[] = {{"A", MakeWorkloadA(divisor)},
                    {"B", MakeWorkloadB(divisor)}};
  const double scales[] = {1.0 / 16, 1.0 / 4, 1.0, 4.0, 16.0};

  // Manual legs first, then kAuto at every factor; all legs of an input run
  // interleaved, one rep each per round, so host drift hits them alike.
  bool all_equal = true;
  TablePrinter table({"input", "est x", "kAuto", "reason", "kAuto [ms]",
                      "oracle", "oracle [ms]", "vs oracle"});
  const JoinStrategy manual[] = {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                                 JoinStrategy::kBRJ};
  const int num_manual = 3;
  for (const Input& in : inputs) {
    auto plan = CountJoinPlan(in.workload);
    std::vector<ExecOptions> legs;
    for (JoinStrategy s : manual) legs.push_back(bench::Options(s, threads));
    for (double scale : scales) {
      legs.push_back(bench::Options(JoinStrategy::kAuto, threads));
      legs.back().advisor.est_scale = scale;
    }
    // Warm-up doubles as the result check (and pays any calibration).
    const QueryResult reference = ExecuteQuery(*plan, legs[0], nullptr, &pool);
    for (const ExecOptions& o : legs) {
      all_equal = all_equal &&
                  ExecuteQuery(*plan, o, nullptr, &pool).ApproxEquals(reference);
    }
    std::vector<std::vector<QueryStats>> runs(legs.size());
    for (int r = 0; r < reps; ++r) {
      for (size_t l = 0; l < legs.size(); ++l) {
        runs[l].emplace_back();
        ExecuteQuery(*plan, legs[l], &runs[l].back(), &pool);
      }
    }
    std::vector<QueryStats> median(legs.size());
    for (size_t l = 0; l < legs.size(); ++l) {
      std::sort(runs[l].begin(), runs[l].end(),
                [](const QueryStats& a, const QueryStats& b) {
                  return a.seconds < b.seconds;
                });
      median[l] = runs[l][runs[l].size() / 2];
    }
    int oracle = 0;
    for (int l = 1; l < num_manual; ++l) {
      if (median[l].seconds < median[oracle].seconds) oracle = l;
    }
    const double oracle_seconds = median[oracle].seconds;

    for (size_t i = 0; i < std::size(scales); ++i) {
      const QueryStats& stats = median[num_manual + i];
      const JoinMetrics* jm = stats.metrics.FindJoin(0);
      const bool advised = jm != nullptr && jm->advisor.present;
      char buf[32];
      std::vector<std::string> row;
      row.push_back(in.name);
      std::snprintf(buf, sizeof(buf), "%.4g", scales[i]);
      row.push_back(buf);
      const std::string label =
          std::string("ext_misestimate ") + in.name + " x" + buf;
      row.push_back(advised ? JoinStrategyName(jm->advisor.choice) : "?");
      row.push_back(advised ? jm->advisor.reason : "?");
      std::snprintf(buf, sizeof(buf), "%.1f", stats.seconds * 1e3);
      row.push_back(buf);
      row.push_back(JoinStrategyName(manual[oracle]));
      std::snprintf(buf, sizeof(buf), "%.1f", oracle_seconds * 1e3);
      row.push_back(buf);
      std::snprintf(buf, sizeof(buf), "%.2fx", stats.seconds / oracle_seconds);
      row.push_back(buf);
      table.AddRow(std::move(row));
      bench::DumpMetrics(label, stats);
    }
  }
  table.Print();
  std::printf(
      "\nexpected shape: an underestimate can only move a join toward BHJ\n"
      "(the \"build fits L2\" rule), whose downside is bounded; an\n"
      "overestimate can make the probe look smaller than the build, which\n"
      "also picks BHJ. Where the oracle is a radix join, those legs pay the\n"
      "BHJ-vs-radix gap and nothing more.\n");
  if (!all_equal) {
    std::printf("ERROR: a kAuto result differs from manual BHJ\n");
    return 1;
  }
  return 0;
}
