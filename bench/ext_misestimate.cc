// Extension: mid-query re-planning under injected estimate corruption.
//
// Workload A with the advisor's build-side cardinality estimate multiplied
// by x1/16 .. x16 (PJOIN_EST_SCALE fault injection). Three runs per factor:
//   * static   — kAuto with re-planning off: the misled plan executes as-is
//                (only the legacy overflow guardrail can save it),
//   * replan   — kAuto with PJOIN_REPLAN_QERROR=2: the deferred decision
//                re-costs the join with the observed build count,
//   * oracle   — the best manual strategy for this shape, measured: the
//                per-join floor no estimator can beat.
// The recovered column reports how much of the misled-static-vs-oracle
// wall-time gap re-planning closes; the acceptance target is >= 50% at the
// corruption extremes. Results are checked identical across all runs.
#include "bench/bench_common.h"

int main() {
  using namespace pjoin;
  const int64_t divisor = WorkloadScaleDivisor();
  const int reps = BenchRepetitions();
  const int threads = DefaultThreads();
  bench::PrintHeader(
      "Extension: re-planning vs injected misestimation",
      "extension of Bandle et al. Section 5 (the cost of deciding wrong)",
      "workload A, build estimate corrupted x1/16..x16; static vs replan vs "
      "measured per-join oracle");

  ThreadPool pool(threads);
  MicroWorkload w = MakeWorkloadA(divisor);
  auto plan = CountJoinPlan(w);

  // The measured oracle: best manual strategy for the (uncorrupted) shape.
  double oracle_seconds = 0;
  JoinStrategy oracle_strategy = JoinStrategy::kBHJ;
  for (JoinStrategy s : {JoinStrategy::kBHJ, JoinStrategy::kRJ,
                         JoinStrategy::kBRJ}) {
    QueryStats stats = MeasurePlan(*plan, bench::Options(s, threads), reps,
                                   &pool);
    if (oracle_seconds == 0 || stats.seconds < oracle_seconds) {
      oracle_seconds = stats.seconds;
      oracle_strategy = s;
    }
  }
  std::printf("oracle: %s at %.1f ms\n\n", JoinStrategyName(oracle_strategy),
              oracle_seconds * 1e3);

  const double scales[] = {1.0 / 16, 1.0 / 4, 1.0, 4.0, 16.0};

  // Pinned cost-model constants chosen so the decision boundary sits between
  // the true build size and its corrupted estimates: the uncorrupted build
  // (~12 MiB modeled at the default divisor) reads as cache-resident ->
  // BHJ, while the x4/x16 overestimates cross the boundary and the margin
  // sends the misled static plan to a partitioned strategy. Both advised
  // legs (static and replan) use the same model, so the only difference
  // between them is the mid-query correction.
  const uint64_t model_l2 = (256u << 20) / WorkloadScaleDivisor() * 4;
  TablePrinter table({"est x", "static [ms]", "static choice", "replan [ms]",
                      "replan final", "switched", "recovered"});
  for (double scale : scales) {
    ExecOptions opts = bench::Options(JoinStrategy::kAuto, threads);
    opts.advisor.l2_bytes = model_l2;
    opts.advisor.profile = &CostProfile::Reference();
    opts.advisor.partition_margin = 50.0;
    opts.advisor.est_scale = scale;
    opts.advisor.replan_qerror = 0.0;
    QueryStats stat_static = MeasurePlan(*plan, opts, reps, &pool);

    opts.advisor.replan_qerror = 2.0;
    QueryStats stat_replan = MeasurePlan(*plan, opts, reps, &pool);

    const JoinMetrics* js = stat_static.metrics.FindJoin(0);
    const JoinMetrics* jr = stat_replan.metrics.FindJoin(0);
    const char* static_choice =
        js != nullptr && js->advisor.present
            ? (js->advisor.fell_back ? "BHJ (guardrail)"
                                     : JoinStrategyName(js->advisor.choice))
            : "?";
    const char* replan_final =
        jr != nullptr && jr->replan.enabled
            ? JoinStrategyName(jr->replan.final_choice)
            : "?";
    const bool switched = jr != nullptr && jr->replan.switched;

    // Fraction of the misled-static-vs-oracle gap that re-planning closed.
    const double gap = stat_static.seconds - oracle_seconds;
    const double closed = stat_static.seconds - stat_replan.seconds;
    char recovered[32];
    if (gap > 1e-4 * oracle_seconds + 1e-6) {
      std::snprintf(recovered, sizeof(recovered), "%.0f%%",
                    100.0 * closed / gap);
    } else {
      std::snprintf(recovered, sizeof(recovered), "n/a (no gap)");
    }

    char buf[32];
    std::vector<std::string> row;
    std::snprintf(buf, sizeof(buf), "%.4g", scale);
    row.push_back(buf);
    std::snprintf(buf, sizeof(buf), "%.1f", stat_static.seconds * 1e3);
    row.push_back(buf);
    row.push_back(static_choice);
    std::snprintf(buf, sizeof(buf), "%.1f", stat_replan.seconds * 1e3);
    row.push_back(buf);
    row.push_back(replan_final);
    row.push_back(switched ? "yes" : "no");
    row.push_back(recovered);
    table.AddRow(std::move(row));

    std::snprintf(buf, sizeof(buf), "%.4g", scale);
    bench::DumpMetrics(std::string("ext_misestimate static x") + buf,
                       stat_static);
    bench::DumpMetrics(std::string("ext_misestimate replan x") + buf,
                       stat_replan);
  }
  table.Print();
  std::printf(
      "\nexpected shape: at x1 and below the build reads cache-resident and\n"
      "all legs agree on BHJ (no gap; underestimates trigger the re-cost but\n"
      "confirm the plan). At x4/x16 the overestimate drives the static plan\n"
      "into a needless partitioned join; the re-planner observes the true\n"
      "build count at the pipeline breaker, re-costs, switches to BHJ, and\n"
      "recovers >=50%% of the static-vs-oracle wall-time gap.\n");
  return 0;
}
