// Environment-variable knobs shared by benchmarks and examples.
#ifndef PJOIN_UTIL_ENV_H_
#define PJOIN_UTIL_ENV_H_

#include <cstdint>
#include <string>

#include "util/simd.h"

namespace pjoin {

// Returns the integer value of environment variable `name`, or `def` if the
// variable is unset or unparsable. Trailing non-numeric characters make the
// value unparsable ("12abc" -> def), so typos never silently truncate.
int64_t GetEnvInt64(const char* name, int64_t def);

// Returns the floating-point value of environment variable `name`, or `def`.
double GetEnvDouble(const char* name, double def);

// Returns the string value of environment variable `name`, or `def`.
std::string GetEnvString(const char* name, const std::string& def);

// Parses a byte size with an optional binary suffix: "1048576", "512k",
// "64m", "2g" (case-insensitive, optional trailing "b" or "ib" as in
// "64MiB"). Returns false on empty/garbage/negative input.
bool ParseByteSize(const std::string& text, uint64_t* out);

// Returns the byte size of environment variable `name` parsed with
// ParseByteSize, or `def` if unset or unparsable.
uint64_t GetEnvBytes(const char* name, uint64_t def);

// Process-wide memory budget for join state (PJOIN_MEMORY_BUDGET, size
// suffixes allowed). 0 means unlimited.
uint64_t MemoryBudgetBytes();

// Number of worker threads to use: PJOIN_THREADS, defaulting to the hardware
// concurrency of this machine. Always >= 1, whatever the variable says.
int DefaultThreads();

// Server mode: maximum queries executing at once (PJOIN_MAX_CONCURRENT,
// default 4, clamped >= 1). Each concurrent query gets its own worker set,
// so total thread demand is roughly this times ServerThreadsPerQuery().
int MaxConcurrentQueries();

// Server mode: bounded admission-queue capacity (PJOIN_ADMIT_QUEUE, default
// 32, clamped >= 1). Submissions beyond max-concurrent running plus this
// many queued are rejected instead of buffered without bound.
int AdmitQueueCapacity();

// Server mode: worker threads per admitted query (PJOIN_SERVER_THREADS,
// default: hardware concurrency / PJOIN_MAX_CONCURRENT, clamped >= 1), so
// a fully loaded server oversubscribes no cores by default.
int ServerThreadsPerQuery();

// Scale divisor applied to the prior-work microbenchmark workloads
// (PJOIN_SCALE, default 64). The paper's workload A is 256 MiB x 4096 MiB,
// which does not fit a laptop-scale benchmarking budget; the divisor keeps
// all size *ratios* intact.
int64_t WorkloadScaleDivisor();

// TPC-H scale factor for benchmark runs (PJOIN_SF, default 0.1).
double BenchScaleFactor();

// Median-of-N repetitions for throughput measurements (PJOIN_REPS, default 3).
int BenchRepetitions();

// Requested SIMD dispatch tier (PJOIN_SIMD=scalar|avx2|avx512), or `def` when
// the variable is unset or not a valid tier name — strict, like
// PJOIN_MEMORY_BUDGET, so a typo never silently changes the dispatch.
SimdTier RequestedSimdTier(SimdTier def);

// Table-statistics subsystem master switch (PJOIN_STATS, default 1).
// 0 disables collection and lookups: estimation falls back to the
// pre-statistics heuristics and the EXPLAIN/JSON output is byte-identical
// to a build without the stats subsystem.
bool StatsEnabled();

// Equal-height histogram bucket target (PJOIN_STATS_BUCKETS, default 64,
// clamped to [2, 4096]).
int StatsBuckets();

// Encoded-segment layer master switch (PJOIN_ENCODING, default 1).
// 0 disables dictionary/FOR encoding, join-on-codes, and compressed spill
// pages: scans read plain columns and the EXPLAIN/JSON output is
// byte-identical to a build without the encoding layer.
bool EncodingEnabled();

// Minimum table row count before a table is considered for encoding
// (PJOIN_ENCODING_MIN_ROWS, default 256, clamped >= 1). Tiny tables gain
// nothing from codes and keep their plain-path goldens.
uint64_t EncodingMinRows();

// Mid-query re-planning trigger (PJOIN_REPLAN_QERROR, default 0 = off).
// When > 0, joins advised by the kAuto strategy defer their engine choice
// to the probe phase and re-cost the strategy whenever the observed
// build/probe cardinality q-error meets or exceeds this threshold.
double ReplanQErrorThreshold();

// Algebraic rewrite pass master switch (PJOIN_REWRITE, default 1).
// 0 disables predicate pushdown, Bloom pushdown, and join reordering:
// every plan lowers exactly as written and the EXPLAIN/JSON output is
// byte-identical to the pre-rewrite engine.
bool RewriteEnabledEnv();

// Relation-count cap for exact DPsize join reordering
// (PJOIN_REWRITE_DP_CAP, default 10, clamped to [2, 20]). Regions with more
// relations fall back to the left-deep greedy order.
int RewriteDpCapEnv();

// Plan-time estimate corruption factor (PJOIN_EST_SCALE, default 1.0).
// Multiplies every join's build-side cardinality estimate inside the
// advisor walk — a fault-injection knob for testing and benchmarking the
// re-planner; values <= 0 are treated as 1.0.
double EstimateScale();

}  // namespace pjoin

#endif  // PJOIN_UTIL_ENV_H_
