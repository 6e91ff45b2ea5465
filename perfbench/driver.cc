// Benchmark driver for the pjoin engine.
//
// Runs one workload through the engine's public API and writes the raw
// samples as one JSON document: set-up times, per-query latencies with
// their correctness verdicts, per-pass counts and, in a traced run, the
// spans. perfbench/run.py builds this program, runs it and turns the
// samples into metrics; perfbench/README.md describes the workloads.
//
//   perfbench_driver --workload tpch|micro-join|server-spill --seed N
//                    --seconds S --trace 0|1 --out FILE
//
// An untraced run sets the workload up several times, computes the
// reference results, warms up, and then runs passes over the workload's
// query list until `--seconds` have elapsed. A traced run does the same
// with the tracer on (every second pass of the timed loop runs untraced,
// so the run can report its own tracing overhead), then gives each other
// workload one set-up and two traced passes, and finally times the direct
// layer probes of all three workloads, so that every per-layer metric comes
// out of every traced run.
#include <sys/resource.h>
#include <sys/statfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench_util/workloads.h"
#include "engine/advisor.h"
#include "engine/executor.h"
#include "engine/plan.h"
#include "exec/thread_pool.h"
#include "filter/blocked_bloom.h"
#include "hash_table/chaining_ht.h"
#include "hash_table/robin_hood.h"
#include "partition/radix_partitioner.h"
#include "rewrite/rewrite.h"
#include "server/query_server.h"
#include "spill/memory_governor.h"
#include "spill/spill_file.h"
#include "spill/spill_page.h"
#include "stats/stats_catalog.h"
#include "storage/encoded_segment.h"
#include "storage/types.h"
#include "tpch/gen.h"
#include "tpch/queries.h"
#include "util/cpu_info.h"
#include "util/hash.h"
#include "util/simd.h"
#include "trace.h"

namespace perfbench {
namespace {

using pjoin::ExecOptions;
using pjoin::JoinStrategy;
using pjoin::PlanNode;
using pjoin::QueryResult;
using pjoin::QueryStats;
using pjoin::ThreadPool;

// --- Fixed configuration. Every value here is part of the benchmark's
// definition and is written into the result's config block.
// An untraced run sets up at least kSetupReps times and keeps going until
// kSetupSeconds have passed, so a cheap set-up still has a steady median.
constexpr int kSetupReps = 3;
constexpr double kSetupSeconds = 1.5;
constexpr int kMaxSetupReps = 50;
constexpr int kForeignPasses = 2;    // traced passes of every other workload
constexpr int kProbeReps = 5;        // repetitions of each layer probe

constexpr double kTpchScale = 0.1;
constexpr int kTpchWorkers = 4;

constexpr int64_t kMicroDivisor = 64;
constexpr int kMicroWorkers = 4;

constexpr int kServerSessions = 2;
constexpr int kServerSlots = 1;
constexpr int kServerWorkers = 2;          // per query
constexpr int kServerAdmitQueue = 4;       // >= sessions: no rejection
constexpr uint64_t kServerBudget = 704 << 10;
constexpr uint64_t kPointBuild = 1 << 10;
constexpr uint64_t kPointProbe = 1 << 13;
constexpr uint64_t kHeavyBuild = 1 << 14;
constexpr uint64_t kHeavyProbe = 1 << 16;
constexpr int kPointsPerBlock = 15;        // per session and pass
constexpr int kHeaviesPerBlock = 1;

constexpr uint64_t kSpillProbeBytes = 16 << 20;

// --- JSON helpers --------------------------------------------------------

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- Samples ---------------------------------------------------------------

struct QuerySample {
  int pass = -1;       // -1: a layer probe's correctness check
  std::string name;
  double latency_s = 0;
  double queue_s = 0;   // admission-queue wait (server only)
  std::string status;   // ok | wrong | failed | rejected
};

struct PassSample {
  int id = 0;
  double wall_s = 0;
  bool traced = false;
  std::map<std::string, double> counts;
};

struct Section {
  std::string workload;
  bool own = false;
  std::vector<double> setup_s;
  std::vector<PassSample> passes;
  std::vector<QuerySample> queries;
};

struct Context {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  Tracer tracer;
  int next_pass = 0;
};

std::string Status(bool ok) { return ok ? "ok" : "wrong"; }

void AddCounts(const QueryStats& st, std::map<std::string, double>* counts) {
  (*counts)["source_tuples"] += static_cast<double>(st.source_tuples);
  for (int p = 0; p < static_cast<int>(pjoin::JoinPhase::kNumPhases); ++p) {
    const pjoin::PhaseBytes& b = st.bytes.phase(static_cast<pjoin::JoinPhase>(p));
    (*counts)["bytes_read"] += static_cast<double>(b.read);
    (*counts)["bytes_written"] += static_cast<double>(b.written);
  }
  (*counts)["partition_bytes"] += static_cast<double>(st.partition_bytes);
  (*counts)["bloom_dropped"] += static_cast<double>(st.bloom_dropped);
  (*counts)["engine_s"] += st.seconds;
}

// First-touch catalog builds. Encoding goes first: statistics collection
// would otherwise encode as a side effect and hide the cost in its span.
void BuildCatalogs(Context& ctx, const std::vector<const pjoin::Table*>& tables) {
  {
    Span s(ctx.tracer, "storage.encode");
    for (const pjoin::Table* t : tables) pjoin::EncodingCatalog::Global().Get(*t);
  }
  {
    Span s(ctx.tracer, "stats.collect");
    for (const pjoin::Table* t : tables) pjoin::StatsCatalog::Global().Get(*t);
  }
}

void InvalidateCatalogs() {
  pjoin::EncodingCatalog::Global().Invalidate();
  pjoin::StatsCatalog::Global().Invalidate();
}

// --- Workloads -------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  virtual const char* name() const = 0;
  // Timed passes an untraced run makes at least, so that the point class
  // has the 100 samples a p90 needs even on a slow host.
  virtual int min_passes() const = 0;
  // Builds inputs, catalogs and plans; timed as one `<name>.setup` span.
  virtual void Setup(Context& ctx) = 0;
  // Drops what Setup built (untimed, before the next Setup).
  virtual void Teardown() = 0;
  // Reference results and warm-up; excluded from every metric.
  virtual void Prepare(Context& ctx) = 0;
  virtual void RunPass(Context& ctx, PassSample* pass, Section* sec) = 0;
  // Direct calls into single layers (traced runs only).
  virtual void Probes(Context& ctx, Section* sec) = 0;
};

// Runs `fn` kProbeReps times, each inside a span named `name`.
template <typename Fn>
void Repeat(Context& ctx, const char* name, Fn&& fn) {
  for (int r = 0; r < kProbeReps; ++r) {
    Span s(ctx.tracer, name);
    fn(s);
  }
}

// The 19 join-bearing TPC-H queries under kAuto, in id order.
class TpchWorkload : public Workload {
 public:
  const char* name() const override { return "tpch"; }
  int min_passes() const override { return 7; }

  void Setup(Context& ctx) override {
    InvalidateCatalogs();
    {
      Span s(ctx.tracer, "tpch.generate");
      db_ = pjoin::GenerateTpch(kTpchScale, ctx.seed);
    }
    BuildCatalogs(ctx, {&db_->region, &db_->nation, &db_->supplier,
                        &db_->customer, &db_->part, &db_->partsupp,
                        &db_->orders, &db_->lineitem});
    Span s(ctx.tracer, "plans.build");
    BuildProbePlans();
  }

  void Teardown() override {
    scan_filter_.reset();
    groupby_.reset();
    join_.reset();
    multiway_.reset();
    db_.reset();
    InvalidateCatalogs();
  }

  void Prepare(Context&) override {
    pool_ = std::make_unique<ThreadPool>(kTpchWorkers);
    reference_.clear();
    ExecOptions bhj = Options(JoinStrategy::kBHJ);
    for (const pjoin::TpchQuery& q : pjoin::TpchQueries()) {
      QueryStats st;
      reference_.push_back(q.run(*db_, bhj, &st, pool_.get()));
    }
    ExecOptions autos = Options(JoinStrategy::kAuto);
    for (const pjoin::TpchQuery& q : pjoin::TpchQueries()) {
      QueryStats st;
      q.run(*db_, autos, &st, pool_.get());
    }
  }

  void RunPass(Context& ctx, PassSample* pass, Section* sec) override {
    ExecOptions opts = Options(JoinStrategy::kAuto);
    const auto& queries = pjoin::TpchQueries();
    for (size_t i = 0; i < queries.size(); ++i) {
      QuerySample qs;
      qs.pass = pass->id;
      qs.name = "Q" + std::to_string(queries[i].id);
      QueryStats st;
      Span s(ctx.tracer, "tpch." + qs.name);
      QueryResult r = queries[i].run(*db_, opts, &st, pool_.get());
      qs.latency_s = s.End();
      qs.status = Status(r.ApproxEquals(reference_[i]));
      AddCounts(st, &pass->counts);
      sec->queries.push_back(std::move(qs));
    }
  }

  void Probes(Context& ctx, Section* sec) override {
    const uint64_t lineitems = db_->lineitem.num_rows();
    uint64_t in_range = 0;
    const pjoin::Column& ship = db_->lineitem.column("l_shipdate");
    for (uint64_t r = 0; r < lineitems; ++r) {
      const int32_t d = ship.GetInt32(r);
      in_range += d >= date_lo_ && d <= date_hi_;
    }
    Check(ctx, sec, "engine.scan_filter", *scan_filter_,
          Options(JoinStrategy::kAuto), [&](const QueryResult& r) {
            return CountOf(r) == static_cast<int64_t>(in_range);
          });
    Check(ctx, sec, "engine.groupby", *groupby_, Options(JoinStrategy::kAuto),
          [&](const QueryResult& r) {
            return r.num_rows() == db_->orders.num_rows();
          });
    for (JoinStrategy js : {JoinStrategy::kBHJ, JoinStrategy::kRJ}) {
      Check(ctx, sec,
            js == JoinStrategy::kBHJ ? "join.tpch_bhj" : "join.tpch_rj", *join_,
            Options(js), [&](const QueryResult& r) {
              return CountOf(r) == static_cast<int64_t>(lineitems);
            });
    }

    // Planning on a five-relation plan: the rewrite pass, then the advisor
    // over the rewritten tree. Each repetition is one span around a batch,
    // so a span is long enough for the clock.
    constexpr int kPlanBatch = 50;
    size_t joins = 0;
    std::unique_ptr<PlanNode> rewritten;
    Repeat(ctx, "rewrite.plan", [&](Span& s) {
      for (int i = 0; i < kPlanBatch; ++i) {
        rewritten = pjoin::RewritePlan(*multiway_).plan;
      }
      s.End(kPlanBatch);
    });
    const PlanNode& advised = rewritten ? *rewritten : *multiway_;
    Repeat(ctx, "engine.advise", [&](Span& s) {
      for (int i = 0; i < kPlanBatch; ++i) {
        joins = pjoin::JoinAdvisor::AdvisePlan(advised, {}).size();
      }
      s.End(kPlanBatch);
    });
    sec->queries.push_back(
        {-1, "engine.advise", 0, 0,
         Status(joins == static_cast<size_t>(multiway_->CountJoins()))});
  }

 private:
  static ExecOptions Options(JoinStrategy js) {
    ExecOptions o;
    o.join_strategy = js;
    o.num_threads = kTpchWorkers;
    return o;
  }

  static int64_t CountOf(const QueryResult& r) {
    if (r.rows.size() != 1 || r.rows[0].size() != 1) return -1;
    const auto* v = std::get_if<int64_t>(&r.rows[0][0]);
    return v ? *v : -1;
  }

  template <typename Pred>
  void Check(Context& ctx, Section* sec, const char* name, const PlanNode& plan,
             const ExecOptions& opts, Pred&& ok) {
    QueryStats st;
    bool good = ok(pjoin::ExecuteQuery(plan, opts, &st, pool_.get()));
    Repeat(ctx, name, [&](Span& s) {
      QueryResult r = pjoin::ExecuteQuery(plan, opts, &st, pool_.get());
      s.End(st.source_tuples);
      good = good && ok(r);
    });
    sec->queries.push_back({-1, name, 0, 0, Status(good)});
  }

  void BuildProbePlans() {
    using pjoin::AggDef;
    using P = pjoin::ScanPredicate;
    date_lo_ = pjoin::MakeDate(1994, 1, 1);
    date_hi_ = pjoin::MakeDate(1994, 12, 31);
    scan_filter_ = pjoin::Aggregate(
        pjoin::ScanTable(&db_->lineitem,
                         {P::BetweenI("l_shipdate", date_lo_, date_hi_)}),
        {}, {AggDef::CountStar("n")});
    groupby_ = pjoin::Aggregate(pjoin::ScanTable(&db_->lineitem),
                                {"l_orderkey"}, {AggDef::CountStar("n")});
    join_ = pjoin::Aggregate(
        pjoin::Join(pjoin::ScanTable(&db_->orders),
                    pjoin::ScanTable(&db_->lineitem),
                    {{"o_orderkey", "l_orderkey"}}),
        {}, {AggDef::CountStar("n")});
    // Q5's join graph, written in a deliberately poor order (the fact
    // table joins last) so the rewrite pass has work to do.
    multiway_ = pjoin::Aggregate(
        pjoin::Join(
            pjoin::Join(
                pjoin::Join(
                    pjoin::Join(pjoin::ScanTable(&db_->region,
                                                 {P::StrEq("r_name", "ASIA")}),
                                pjoin::ScanTable(&db_->nation),
                                {{"r_regionkey", "n_regionkey"}}),
                    pjoin::ScanTable(&db_->customer),
                    {{"n_nationkey", "c_nationkey"}}),
                pjoin::ScanTable(&db_->orders), {{"c_custkey", "o_custkey"}}),
            pjoin::ScanTable(&db_->lineitem), {{"o_orderkey", "l_orderkey"}}),
        {"n_name"}, {AggDef::CountStar("n")});
  }

  std::unique_ptr<pjoin::TpchDb> db_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<QueryResult> reference_;
  int32_t date_lo_ = 0;
  int32_t date_hi_ = 0;
  std::unique_ptr<PlanNode> scan_filter_, groupby_, join_, multiway_;
};

// count(*) joins over workload A, B and A with 10 % probe matches, each
// under forced BHJ, RJ and BRJ and under kAuto.
class MicroJoinWorkload : public Workload {
 public:
  const char* name() const override { return "micro-join"; }
  int min_passes() const override { return 9; }

  void Setup(Context& ctx) override {
    InvalidateCatalogs();
    {
      Span s(ctx.tracer, "bench_util.generate");
      inputs_.clear();
      inputs_.push_back({"A", pjoin::MakeWorkloadA(kMicroDivisor), nullptr});
      inputs_.push_back({"B", pjoin::MakeWorkloadB(kMicroDivisor), nullptr});
      inputs_.push_back(
          {"A10", pjoin::MakeSelectivityWorkload(kMicroDivisor, 0.1), nullptr});
    }
    std::vector<const pjoin::Table*> tables;
    for (Input& in : inputs_) {
      tables.push_back(&in.workload.build);
      tables.push_back(&in.workload.probe);
    }
    BuildCatalogs(ctx, tables);
    Span s(ctx.tracer, "plans.build");
    for (Input& in : inputs_) in.plan = pjoin::CountJoinPlan(in.workload);
  }

  void Teardown() override {
    inputs_.clear();
    InvalidateCatalogs();
  }

  void Prepare(Context& ctx) override {
    pool_ = std::make_unique<ThreadPool>(kMicroWorkers);
    reference_.clear();
    for (Input& in : inputs_) {
      QueryStats st;
      reference_.push_back(pjoin::ExecuteQuery(*in.plan, Options(JoinStrategy::kBHJ),
                                               &st, pool_.get()));
    }
    // The seed fixes the order of the twelve runs within a pass; the
    // generators in bench_util have fixed seeds of their own.
    order_.clear();
    for (size_t i = 0; i < inputs_.size(); ++i) {
      for (JoinStrategy js : kStrategies) order_.push_back({i, js});
    }
    std::mt19937_64 rng(ctx.seed);
    std::shuffle(order_.begin(), order_.end(), rng);
    PassSample warm;
    Section scratch;
    RunPass(ctx, &warm, &scratch);
  }

  void RunPass(Context& ctx, PassSample* pass, Section* sec) override {
    for (const auto& [i, js] : order_) {
      Input& in = inputs_[i];
      QuerySample qs;
      qs.pass = pass->id;
      qs.name = in.name + "." + pjoin::JoinStrategyName(js);
      QueryStats st;
      Span s(ctx.tracer, "micro." + qs.name);
      QueryResult r = pjoin::ExecuteQuery(*in.plan, Options(js), &st, pool_.get());
      qs.latency_s = s.End();
      qs.status = Status(r.ApproxEquals(reference_[i]));
      AddCounts(st, &pass->counts);
      sec->queries.push_back(std::move(qs));
    }
  }

  // Single layers, timed directly on workload A's keys.
  void Probes(Context& ctx, Section* sec) override {
    const pjoin::MicroWorkload& a = inputs_[0].workload;
    const std::vector<int64_t> build = Keys(a.build, "b_key");
    const std::vector<int64_t> probe = Keys(a.probe, "p_key");
    const uint64_t nb = build.size();
    const uint64_t np = probe.size();
    ThreadPool single(1);
    bool ok = true;

    Repeat(ctx, "partition.radix", [&](Span& s) {
      pjoin::RadixBits bits = pjoin::ChooseRadixBits(np, 16);
      pjoin::RadixConfig config;
      config.row_stride = 8;
      config.bits1 = bits.bits1;
      config.bits2 = bits.bits2;
      pjoin::RadixPartitioner part(config);
      for (const int64_t& k : probe) {
        part.Add(0, pjoin::HashInt64(k), reinterpret_cast<const std::byte*>(&k),
                 nullptr);
      }
      part.FlushThread(0, nullptr);
      part.Finalize(single, nullptr, nullptr);
      s.End(np);
      ok = ok && part.total_tuples() == np;
    });
    sec->queries.push_back({-1, "partition.radix", 0, 0, Status(ok)});

    ok = true;
    for (int r = 0; r < kProbeReps; ++r) {
      pjoin::ChainingHashTable ht(8, false);
      {
        Span s(ctx.tracer, "hash_table.chaining_build");
        for (const int64_t& k : build) {
          ht.MaterializeEntry(0, pjoin::HashInt64(k),
                              reinterpret_cast<const std::byte*>(&k), 8);
        }
        ht.Build(single);
        s.End(nb);
      }
      Span s(ctx.tracer, "hash_table.chaining_probe");
      uint64_t matches = 0;
      for (const int64_t& k : probe) {
        const uint64_t h = pjoin::HashInt64(k);
        for (const std::byte* e = ht.ChainHead(h); e != nullptr;
             e = pjoin::ChainingHashTable::EntryNext(e)) {
          matches += pjoin::ChainingHashTable::EntryHash(e) == h &&
                     std::memcmp(ht.EntryRow(e), &k, 8) == 0;
        }
      }
      s.End(np);
      ok = ok && matches == np;
    }
    sec->queries.push_back({-1, "hash_table.chaining", 0, 0, Status(ok)});

    ok = true;
    pjoin::RobinHoodTable rh;
    Repeat(ctx, "hash_table.robin_hood", [&](Span& s) {
      rh.Reset(nb);
      for (const int64_t& k : build) {
        rh.Insert(pjoin::HashInt64(k), reinterpret_cast<const std::byte*>(&k));
      }
      uint64_t matches = 0;
      for (const int64_t& k : probe) {
        rh.ForEachMatch(pjoin::HashInt64(k), [&](const std::byte* t, uint64_t) {
          matches += std::memcmp(t, &k, 8) == 0;
        });
      }
      s.End(nb + np);
      ok = ok && matches == np;
    });
    sec->queries.push_back({-1, "hash_table.robin_hood", 0, 0, Status(ok)});

    // Every probe key has a build partner, so a correct filter passes all.
    pjoin::BlockedBloomFilter bloom;
    bloom.Resize(nb);
    for (const int64_t& k : build) bloom.InsertUnsynchronized(pjoin::HashInt64(k));
    ok = true;
    Repeat(ctx, "filter.bloom_probe", [&](Span& s) {
      uint64_t pass = 0;
      for (const int64_t& k : probe) pass += bloom.MayContain(pjoin::HashInt64(k));
      s.End(np);
      ok = ok && pass == np;
    });
    sec->queries.push_back({-1, "filter.bloom_probe", 0, 0, Status(ok)});
  }

 private:
  struct Input {
    std::string name;
    pjoin::MicroWorkload workload;
    std::unique_ptr<PlanNode> plan;
  };
  static constexpr JoinStrategy kStrategies[] = {
      JoinStrategy::kBHJ, JoinStrategy::kRJ, JoinStrategy::kBRJ,
      JoinStrategy::kAuto};

  static ExecOptions Options(JoinStrategy js) {
    ExecOptions o;
    o.join_strategy = js;
    o.num_threads = kMicroWorkers;
    return o;
  }

  static std::vector<int64_t> Keys(const pjoin::Table& t, const char* col) {
    const pjoin::Column& c = t.column(col);
    std::vector<int64_t> keys(t.num_rows());
    for (uint64_t r = 0; r < keys.size(); ++r) keys[r] = c.GetInt64(r);
    return keys;
  }

  std::vector<Input> inputs_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<QueryResult> reference_;
  std::vector<std::pair<size_t, JoinStrategy>> order_;
};

// Two sessions in a closed loop through QueryServer: a point join that
// never spills and a heavy join whose build side exceeds its fair share of
// a fixed memory budget.
class ServerSpillWorkload : public Workload {
 public:
  const char* name() const override { return "server-spill"; }
  int min_passes() const override { return 7; }

  void Setup(Context& ctx) override {
    InvalidateCatalogs();
    {
      Span s(ctx.tracer, "bench_util.generate");
      point_ = pjoin::MakeSizedWorkload(kPointBuild, kPointProbe);
      heavy_ = pjoin::MakeSizedWorkload(kHeavyBuild, kHeavyProbe);
    }
    BuildCatalogs(ctx, {&point_.build, &point_.probe, &heavy_.build,
                        &heavy_.probe});
    Span s(ctx.tracer, "plans.build");
    point_plan_ = pjoin::CountJoinPlan(point_);
    heavy_plan_ = pjoin::CountJoinPlan(heavy_);
  }

  void Teardown() override {
    server_.reset();
    pjoin::MemoryGovernor::Global().set_budget(0);
    point_plan_.reset();
    heavy_plan_.reset();
    point_ = {};
    heavy_ = {};
    InvalidateCatalogs();
  }

  void Prepare(Context& ctx) override {
    // References come from serial, unbudgeted ExecuteQuery calls.
    ExecOptions ref = Options();
    ref.join_strategy = JoinStrategy::kBHJ;
    point_ref_ = pjoin::ExecuteQuery(*point_plan_, ref);
    heavy_ref_ = pjoin::ExecuteQuery(*heavy_plan_, ref);
    pjoin::ServerOptions so;
    so.max_concurrent = kServerSlots;
    so.admit_queue = kServerAdmitQueue;
    so.threads_per_query = kServerWorkers;
    server_ = std::make_unique<pjoin::QueryServer>(so);
    pjoin::MemoryGovernor::Global().set_budget(kServerBudget);
    seed_ = ctx.seed;
    PassSample warm;
    Section scratch;
    RunPass(ctx, &warm, &scratch);
  }

  void RunPass(Context& ctx, PassSample* pass, Section* sec) override {
    pjoin::MemoryGovernor& gov = pjoin::MemoryGovernor::Global();
    const uint64_t denials0 = gov.denials();
    std::vector<std::vector<QuerySample>> samples(kServerSessions);
    std::vector<std::map<std::string, double>> counts(kServerSessions);
    const int parent = Span::CurrentId();
    std::vector<std::thread> clients;
    for (int c = 0; c < kServerSessions; ++c) {
      clients.emplace_back([&, c] {
        RunClient(ctx, pass->id, parent, c, &samples[c], &counts[c]);
      });
    }
    for (std::thread& t : clients) t.join();
    for (int c = 0; c < kServerSessions; ++c) {
      for (auto& [k, v] : counts[c]) pass->counts[k] += v;
      for (QuerySample& q : samples[c]) sec->queries.push_back(std::move(q));
    }
    pass->counts["governor_denials"] =
        static_cast<double>(gov.denials() - denials0);
  }

  void Probes(Context& ctx, Section* sec) override {
    // Spill tuples in the partition format [hash:8][key:8] over the heavy
    // build side, repeated to the probe size.
    const pjoin::Column& keys = heavy_.build.column("b_key");
    std::vector<std::byte> data(kSpillProbeBytes);
    constexpr uint32_t kStride = 16;
    for (uint64_t off = 0, r = 0; off < data.size(); off += kStride, ++r) {
      const int64_t k = keys.GetInt64(r % heavy_.build.num_rows());
      const uint64_t h = pjoin::HashInt64(k);
      std::memcpy(&data[off], &h, 8);
      std::memcpy(&data[off + 8], &k, 8);
    }
    constexpr size_t kChunk = pjoin::kSpillPageBytes;

    bool ok = true;
    std::vector<std::byte> back(kChunk);
    for (int r = 0; r < kProbeReps; ++r) {
      pjoin::SpillFile file;
      {
        Span s(ctx.tracer, "spill.write");
        for (size_t off = 0; off < data.size(); off += kChunk) {
          file.Append(&data[off], kChunk);
        }
        file.FinishWrite();
        s.End(0, data.size());
      }
      Span s(ctx.tracer, "spill.read");
      for (size_t off = 0; off < data.size(); off += kChunk) {
        file.Read(off, back.data(), kChunk);
        ok = ok && std::memcmp(back.data(), &data[off], kChunk) == 0;
      }
      s.End(0, data.size());
    }
    sec->queries.push_back({-1, "spill.file", 0, 0, Status(ok)});

    ok = true;
    const size_t pages = data.size() / kChunk;
    std::vector<std::vector<std::byte>> encoded(pages);
    for (int r = 0; r < kProbeReps; ++r) {
      {
        Span s(ctx.tracer, "spill.page_encode");
        for (size_t p = 0; p < pages; ++p) {
          encoded[p].clear();
          pjoin::EncodeSpillPage(&data[p * kChunk], kChunk, kStride, &encoded[p]);
        }
        s.End(pages, data.size());
      }
      Span s(ctx.tracer, "spill.page_decode");
      for (size_t p = 0; p < pages; ++p) {
        pjoin::DecodeSpillPage(encoded[p].data(), encoded[p].size(), kChunk,
                               kStride, back.data());
        ok = ok && std::memcmp(back.data(), &data[p * kChunk], kChunk) == 0;
      }
      s.End(pages, data.size());
    }
    sec->queries.push_back({-1, "spill.page", 0, 0, Status(ok)});
  }

 private:
  static ExecOptions Options() {
    ExecOptions o;
    o.join_strategy = JoinStrategy::kAuto;
    o.num_threads = kServerWorkers;
    return o;
  }

  void RunClient(Context& ctx, int pass, int parent, int client,
                 std::vector<QuerySample>* out,
                 std::map<std::string, double>* counts) {
    // The seed, the pass and the client fix where in the block the heavy
    // queries fall.
    std::vector<bool> heavy(kPointsPerBlock + kHeaviesPerBlock, false);
    std::fill(heavy.begin(), heavy.begin() + kHeaviesPerBlock, true);
    std::mt19937_64 rng(seed_ * 1000003 + static_cast<uint64_t>(pass) * 31 +
                        static_cast<uint64_t>(client));
    std::shuffle(heavy.begin(), heavy.end(), rng);
    pjoin::Session session = server_->OpenSession();
    const ExecOptions opts = Options();
    for (bool h : heavy) {
      QuerySample qs;
      qs.pass = pass;
      qs.name = h ? "heavy" : "point";
      Span s(ctx.tracer, h ? "server.heavy" : "server.point", pass, parent);
      pjoin::QueryHandlePtr handle =
          session.Submit(h ? *heavy_plan_ : *point_plan_, opts);
      const QueryResult& r = handle->Wait();
      qs.latency_s = s.End();
      qs.queue_s = handle->queue_seconds();
      switch (handle->state()) {
        case pjoin::QueryState::kDone:
          qs.status = Status(r.ApproxEquals(h ? heavy_ref_ : point_ref_));
          break;
        case pjoin::QueryState::kRejected:
          qs.status = "rejected";
          break;
        default:
          qs.status = "failed";
          break;
      }
      if (handle->state() == pjoin::QueryState::kDone) {
        const QueryStats& st = handle->stats();
        for (const pjoin::JoinMetrics& j : st.metrics.joins()) {
          (*counts)["spill_bytes_written"] += static_cast<double>(j.spill.bytes_written);
          (*counts)["spill_physical_bytes_written"] +=
              static_cast<double>(j.spill.physical_bytes_written);
        }
        (*counts)["heavy_queries"] += h ? 1 : 0;
      }
      out->push_back(std::move(qs));
    }
  }

  uint64_t seed_ = 0;
  pjoin::MicroWorkload point_, heavy_;
  std::unique_ptr<PlanNode> point_plan_, heavy_plan_;
  QueryResult point_ref_, heavy_ref_;
  std::unique_ptr<pjoin::QueryServer> server_;
};

std::unique_ptr<Workload> MakeWorkload(const std::string& name) {
  if (name == "tpch") return std::make_unique<TpchWorkload>();
  if (name == "micro-join") return std::make_unique<MicroJoinWorkload>();
  if (name == "server-spill") return std::make_unique<ServerSpillWorkload>();
  return nullptr;
}

// --- Run -------------------------------------------------------------------

Section RunSection(Context& ctx, Workload& w, bool own) {
  Section sec;
  sec.workload = w.name();
  sec.own = own;
  const bool repeat = own && !ctx.trace;
  ctx.tracer.set_enabled(ctx.trace);
  double setup_total = 0;
  for (int r = 0; r == 0 || (repeat && (r < kSetupReps ||
                                        (setup_total < kSetupSeconds &&
                                         r < kMaxSetupReps)));
       ++r) {
    w.Teardown();
    Span s(ctx.tracer, std::string(w.name()) + ".setup");
    w.Setup(ctx);
    sec.setup_s.push_back(s.End());
    setup_total += sec.setup_s.back();
  }
  ctx.tracer.set_enabled(false);
  w.Prepare(ctx);

  const double budget = own ? ctx.seconds : 0;
  const int min_passes = own ? w.min_passes() : kForeignPasses;
  const int64_t start = NowNs();
  for (int i = 0;
       i < min_passes || static_cast<double>(NowNs() - start) * 1e-9 < budget;
       ++i) {
    PassSample pass;
    pass.id = ctx.next_pass++;
    // In the traced run's own loop every second pass runs untraced; the
    // ratio of the two medians is the tracing overhead.
    pass.traced = ctx.trace && !(own && i % 2 == 1);
    ctx.tracer.set_enabled(pass.traced);
    Span s(ctx.tracer, std::string(w.name()) + ".pass", pass.id);
    w.RunPass(ctx, &pass, &sec);
    pass.wall_s = s.End();
    sec.passes.push_back(std::move(pass));
  }
  ctx.tracer.set_enabled(ctx.trace);
  if (ctx.trace) w.Probes(ctx, &sec);
  w.Teardown();
  return sec;
}

std::string FsType(const std::string& dir) {
  struct statfs sf{};
  if (statfs(dir.c_str(), &sf) != 0) return "unknown";
  switch (static_cast<uint64_t>(sf.f_type)) {
    case 0x01021994: return "tmpfs";
    case 0xEF53: return "ext4";
    case 0x794c7630: return "overlayfs";
    case 0x58465342: return "xfs";
    case 0x9123683E: return "btrfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%llx",
                    static_cast<unsigned long long>(sf.f_type));
      return buf;
    }
  }
}

void WriteResult(const Context& ctx, const std::vector<Section>& sections,
                 std::ostream& out) {
  const pjoin::CpuInfo& cpu = pjoin::GetCpuInfo();
  const std::string spill_dir = pjoin::SpillFile::SpillDir();
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  out << "{\"host\":{\"cpu_model\":" << Quote(cpu.model_name)
      << ",\"nproc\":" << std::thread::hardware_concurrency()
      << ",\"simd_tier\":" << Quote(pjoin::SimdTierName(pjoin::ActiveSimdTier()))
      << ",\"l2_bytes\":" << cpu.l2_bytes << ",\"llc_bytes\":" << cpu.llc_bytes
      << "},\n\"config\":{\"workload\":" << Quote(ctx.workload)
      << ",\"seed\":" << ctx.seed << ",\"seconds\":" << Num(ctx.seconds)
      << ",\"trace\":" << (ctx.trace ? 1 : 0)
      << ",\"min_setup_reps\":" << kSetupReps
      << ",\"tpch_sf\":" << Num(kTpchScale)
      << ",\"tpch_workers\":" << kTpchWorkers
      << ",\"micro_scale_divisor\":" << kMicroDivisor
      << ",\"micro_workers\":" << kMicroWorkers
      << ",\"server_sessions\":" << kServerSessions
      << ",\"server_slots\":" << kServerSlots
      << ",\"server_workers_per_query\":" << kServerWorkers
      << ",\"server_memory_budget\":" << kServerBudget
      << ",\"server_point_tuples\":[" << kPointBuild << "," << kPointProbe << "]"
      << ",\"server_heavy_tuples\":[" << kHeavyBuild << "," << kHeavyProbe << "]"
      << ",\"spill_dir\":" << Quote(spill_dir)
      << ",\"spill_fs\":" << Quote(FsType(spill_dir))
      << "},\n\"peak_rss_kib\":" << ru.ru_maxrss << ",\n\"sections\":[";
  for (size_t i = 0; i < sections.size(); ++i) {
    const Section& sec = sections[i];
    out << (i ? ",\n" : "\n") << "{\"workload\":" << Quote(sec.workload)
        << ",\"own\":" << (sec.own ? "true" : "false") << ",\"setup_s\":[";
    for (size_t k = 0; k < sec.setup_s.size(); ++k) {
      out << (k ? "," : "") << Num(sec.setup_s[k]);
    }
    out << "],\n\"passes\":[";
    for (size_t k = 0; k < sec.passes.size(); ++k) {
      const PassSample& p = sec.passes[k];
      out << (k ? ",\n" : "\n") << "{\"id\":" << p.id
          << ",\"wall_s\":" << Num(p.wall_s)
          << ",\"traced\":" << (p.traced ? "true" : "false") << ",\"counts\":{";
      bool first = true;
      for (const auto& [name, v] : p.counts) {
        out << (first ? "" : ",") << Quote(name) << ":" << Num(v);
        first = false;
      }
      out << "}}";
    }
    out << "],\n\"queries\":[";
    for (size_t k = 0; k < sec.queries.size(); ++k) {
      const QuerySample& q = sec.queries[k];
      out << (k ? ",\n" : "\n") << "{\"pass\":" << q.pass
          << ",\"name\":" << Quote(q.name)
          << ",\"latency_s\":" << Num(q.latency_s)
          << ",\"queue_s\":" << Num(q.queue_s)
          << ",\"status\":" << Quote(q.status) << "}";
    }
    out << "]}";
  }
  out << "],\n\"spans\":[";
  const std::vector<SpanRecord>& spans = ctx.tracer.spans();
  for (size_t k = 0; k < spans.size(); ++k) {
    const SpanRecord& s = spans[k];
    out << (k ? ",\n" : "\n") << "{\"name\":" << Quote(s.name)
        << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"pass\":" << s.pass
        << ",\"items\":" << s.items << ",\"bytes\":" << s.bytes << "}";
  }
  out << "]}\n";
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload tpch|micro-join|server-spill"
               " --seed N --seconds S --trace 0|1 --out FILE\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Context ctx;
  std::string out_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      ctx.workload = v;
    } else if (flag == "--seed") {
      ctx.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      ctx.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      ctx.trace = std::strcmp(v, "0") != 0;
    } else if (flag == "--out") {
      out_path = v;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || out_path.empty() || ctx.seconds <= 0) return Usage();
  std::unique_ptr<Workload> own = MakeWorkload(ctx.workload);
  if (own == nullptr) return Usage();

  ctx.tracer.set_enabled(ctx.trace);
  std::vector<Section> sections;
  sections.push_back(RunSection(ctx, *own, true));
  if (ctx.trace) {
    for (const char* name : {"tpch", "micro-join", "server-spill"}) {
      if (ctx.workload == name) continue;
      std::unique_ptr<Workload> w = MakeWorkload(name);
      sections.push_back(RunSection(ctx, *w, false));
    }
  }

  std::ofstream out(out_path);
  WriteResult(ctx, sections, out);
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  return 0;
}
