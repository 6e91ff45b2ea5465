// Figure 10: memory bandwidth per phase of the radix join (24 B tuples).
//
// The paper measures read/write DRAM bandwidth with Intel PCM while the RJ
// executes "SELECT sum(s.p1) FROM build r, probe s WHERE r.k = s.k" on
// 24 B probe tuples. We substitute software byte accounting: each phase
// counts the bytes the algorithm logically reads/writes, and the bench
// reports per-phase wall time and effective bandwidth — preserving the
// figure's message (partitioning dominates and every phase is
// bandwidth-bound, padding included).
//
// The paper's columns run with PJOIN_ENCODING=0 so the 24 B tuple story is
// unchanged; the two extension columns re-run the query with encoded
// segments on (DESIGN.md §16) — FOR-coded scans shrink the pipeline reads,
// while the partition phases move the same materialized tuples.
#include <cstdlib>

#include "bench/bench_common.h"

int main() {
  using namespace pjoin;
  const int64_t divisor = WorkloadScaleDivisor();
  bench::PrintHeader(
      "Figure 10: Memory bandwidth for 24 B wide tuples (RJ phases)",
      "Bandle et al., Figure 10",
      "software byte accounting substitutes PCM (see DESIGN.md); enc columns "
      "re-run with encoded segments on");

  // One 8 B payload column: probe row = 16 B; partition tuple = 8 B hash +
  // 16 B row = 24 B, padded to 32 B for the write-combine buffers.
  MicroWorkload w = MakePayloadWorkload(divisor, /*payload_cols=*/1);
  auto plan = SumPayloadPlan(w);
  ThreadPool pool(DefaultThreads());
  setenv("PJOIN_ENCODING", "0", 1);
  QueryStats stats = MeasurePlan(
      *plan, bench::Options(JoinStrategy::kRJ, pool.num_threads()),
      BenchRepetitions(), &pool);
  unsetenv("PJOIN_ENCODING");
  QueryStats enc_stats = MeasurePlan(
      *plan, bench::Options(JoinStrategy::kRJ, pool.num_threads()),
      BenchRepetitions(), &pool);

  TablePrinter table({"phase", "time [ms]", "read [MB/s]", "write [MB/s]",
                      "total [MB/s]", "enc time [ms]", "enc read [MB/s]"});
  const JoinPhase phases[] = {
      JoinPhase::kBuildPipeline, JoinPhase::kPartitionPass1,
      JoinPhase::kHistogramScan, JoinPhase::kPartitionPass2, JoinPhase::kJoin};
  double total_seconds = 0;
  for (JoinPhase phase : phases) {
    double seconds = stats.phase_timer.seconds(phase);
    total_seconds += seconds;
    const PhaseBytes& bytes = stats.bytes.phase(phase);
    auto mbps = [](double b, double s) {
      return s > 0 ? TablePrinter::Double(b / s / 1e6, 0) : "0";
    };
    const double enc_seconds = enc_stats.phase_timer.seconds(phase);
    const PhaseBytes& enc_bytes = enc_stats.bytes.phase(phase);
    table.AddRow({JoinPhaseName(phase), TablePrinter::Double(seconds * 1e3, 1),
                  mbps(static_cast<double>(bytes.read), seconds),
                  mbps(static_cast<double>(bytes.written), seconds),
                  mbps(static_cast<double>(bytes.read + bytes.written),
                       seconds),
                  TablePrinter::Double(enc_seconds * 1e3, 1),
                  mbps(static_cast<double>(enc_bytes.read), enc_seconds)});
  }
  table.Print();
  bench::DumpMetrics("fig10 RJ payload=1", stats);
  bench::DumpMetrics("fig10 RJ payload=1 encoded", enc_stats);
  std::printf("\ntotal measured phase time: %.1f ms (query %.1f ms)\n",
              total_seconds * 1e3, stats.seconds * 1e3);
  std::printf("partition tuple stride: 32 B (24 B padded — Section 5.2.3)\n");
  std::printf(
      "paper shape: the probe-side partitioning passes dominate the\n"
      "execution time and both passes plus the join are bandwidth-bound.\n");
  const EncodingMetrics enc = enc_stats.metrics.encoding();
  if (enc.scans_encoded > 0) {
    std::printf(
        "encoded scans read %llu B where plain reads %llu B (%.1fx "
        "bytes/tuple reduction at the source).\n",
        static_cast<unsigned long long>(enc.scan_read_bytes),
        static_cast<unsigned long long>(enc.plain_read_bytes),
        enc.scan_read_bytes > 0
            ? static_cast<double>(enc.plain_read_bytes) /
                  static_cast<double>(enc.scan_read_bytes)
            : 0.0);
  }
  return 0;
}
