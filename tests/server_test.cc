// Multi-query server mode: admission-queue bounds and FIFO ordering,
// per-query ExecContext isolation, concurrent execution of all eight join
// kinds bit-identical to their serial runs, and cross-query memory-budget
// contention where two hybrid-hash joins share one PJOIN_MEMORY_BUDGET.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench_util/workloads.h"
#include "engine/executor.h"
#include "engine/explain.h"
#include "engine/plan.h"
#include "server/query_server.h"
#include "spill/memory_governor.h"
#include "util/rng.h"

namespace pjoin {
namespace {

// Small two-table schema with integer-only aggregates, so every comparison
// below is exact (no float summation-order noise across morsel schedules).
struct ServerDb {
  Table build{"b", Schema({{"b_key", DataType::kInt64, 0},
                           {"b_pay", DataType::kInt64, 0}})};
  Table probe{"p", Schema({{"p_key", DataType::kInt64, 0},
                           {"p_pay", DataType::kInt64, 0}})};

  explicit ServerDb(int64_t build_rows = 2000, int64_t probe_rows = 30000) {
    Rng rng(4242);
    for (int64_t i = 0; i < build_rows; ++i) {
      build.column(0).AppendInt64(i);
      build.column(1).AppendInt64(static_cast<int64_t>(rng.Below(1000)));
      build.FinishRow();
    }
    for (int64_t i = 0; i < probe_rows; ++i) {
      // ~25% of probe keys miss the build side: exercises the non-matching
      // paths of the outer/anti/mark kinds.
      probe.column(0).AppendInt64(
          static_cast<int64_t>(rng.Below(static_cast<uint64_t>(
              build_rows + build_rows / 3))));
      probe.column(1).AppendInt64(static_cast<int64_t>(rng.Below(1000)));
      probe.FinishRow();
    }
  }
};

// One-join plan of the given kind, grouped so the result has many rows and
// a bit-exact integer checksum column.
std::unique_ptr<PlanNode> KindPlan(const ServerDb& db, JoinKind kind) {
  auto join = Join(ScanTable(&db.build), ScanTable(&db.probe),
                   {{"b_key", "p_key"}}, kind,
                   kind == JoinKind::kMark ? "hit" : "");
  std::vector<std::string> group;
  std::vector<AggDef> aggs = {AggDef::CountStar("n")};
  switch (kind) {
    case JoinKind::kBuildSemi:
    case JoinKind::kBuildAnti:
      group = {"b_pay"};
      aggs.push_back(AggDef::Sum("b_key", "ksum"));
      break;
    case JoinKind::kProbeSemi:
    case JoinKind::kProbeAnti:
      group = {"p_pay"};
      aggs.push_back(AggDef::Sum("p_key", "ksum"));
      break;
    case JoinKind::kMark:
      group = {"hit"};
      aggs.push_back(AggDef::Sum("p_key", "ksum"));
      break;
    default:  // pair kinds carry both sides
      group = {"b_pay"};
      aggs.push_back(AggDef::Sum("p_pay", "psum"));
      break;
  }
  return Aggregate(std::move(join), std::move(group), std::move(aggs));
}

const JoinKind kAllKinds[] = {
    JoinKind::kInner,     JoinKind::kLeftOuter, JoinKind::kRightOuter,
    JoinKind::kProbeSemi, JoinKind::kProbeAnti, JoinKind::kBuildSemi,
    JoinKind::kBuildAnti, JoinKind::kMark,
};

TEST(Server, AdmissionQueueIsFifoAndBounded) {
  ServerDb db;
  auto plan = KindPlan(db, JoinKind::kInner);

  ServerOptions so;
  so.max_concurrent = 1;
  so.admit_queue = 3;
  so.threads_per_query = 2;
  QueryServer server(so);
  Session session = server.OpenSession();

  // Freeze admission so the queue fills deterministically.
  server.PauseAdmission();
  ExecOptions eo;
  std::vector<QueryHandlePtr> accepted;
  for (int i = 0; i < 3; ++i) {
    accepted.push_back(session.Submit(*plan, eo));
    EXPECT_EQ(accepted.back()->state(), QueryState::kQueued);
  }
  EXPECT_EQ(server.queue_depth(), 3u);

  // The fourth submission exceeds the bound: rejected at admission time.
  QueryHandlePtr overflow = session.Submit(*plan, eo);
  EXPECT_EQ(overflow->state(), QueryState::kRejected);
  EXPECT_EQ(overflow->Wait().num_rows(), 0u);
  EXPECT_EQ(server.queries_rejected(), 1u);

  server.ResumeAdmission();
  for (auto& h : accepted) h->Wait();

  // FIFO: admission sequence numbers follow submission order.
  for (size_t i = 0; i < accepted.size(); ++i) {
    EXPECT_EQ(accepted[i]->state(), QueryState::kDone);
    EXPECT_EQ(accepted[i]->admission_seq(), i) << "query " << i;
  }
  EXPECT_EQ(server.queries_submitted(), 4u);
  EXPECT_EQ(server.queries_done(), 3u);
  EXPECT_EQ(session.queries_submitted(), 4u);
}

TEST(Server, DrainsQueuedQueriesOnShutdown) {
  ServerDb db(500, 4000);
  auto plan = KindPlan(db, JoinKind::kInner);
  ExecOptions eo;
  QueryHandlePtr handle;
  {
    ServerOptions so;
    so.max_concurrent = 1;
    so.admit_queue = 4;
    so.threads_per_query = 1;
    QueryServer server(so);
    Session session = server.OpenSession();
    server.PauseAdmission();
    handle = session.Submit(*plan, eo);
    EXPECT_EQ(handle->state(), QueryState::kQueued);
    // The destructor un-pauses, drains the queue, and joins its workers.
  }
  EXPECT_EQ(handle->state(), QueryState::kDone);
  EXPECT_GT(handle->Wait().num_rows(), 0u);
}

TEST(Server, ExecContextIsolationNoMetricBleed) {
  ServerDb small(100, 1000);
  ServerDb large(3000, 40000);
  auto plan_small = KindPlan(small, JoinKind::kInner);
  auto plan_large = KindPlan(large, JoinKind::kInner);
  ExecOptions eo;

  // Serial reference stats.
  QueryStats serial_small, serial_large;
  ThreadPool pool(2);
  eo.num_threads = 2;
  ExecuteQuery(*plan_small, eo, &serial_small, &pool);
  ExecuteQuery(*plan_large, eo, &serial_large, &pool);

  ServerOptions so;
  so.max_concurrent = 2;
  so.threads_per_query = 2;
  QueryServer server(so);
  Session session = server.OpenSession();
  // Interleave many rounds of both queries so the two slots genuinely
  // overlap; per-query counters must match the serial run every time.
  for (int round = 0; round < 4; ++round) {
    QueryHandlePtr hs = session.Submit(*plan_small, eo);
    QueryHandlePtr hl = session.Submit(*plan_large, eo);
    hs->Wait();
    hl->Wait();
    ASSERT_EQ(hs->state(), QueryState::kDone);
    ASSERT_EQ(hl->state(), QueryState::kDone);

    for (auto [handle, serial] :
         {std::pair{&hs, &serial_small}, std::pair{&hl, &serial_large}}) {
      const QueryMetrics& got = (*handle)->stats().metrics;
      const QueryMetrics& want = serial->metrics;
      ASSERT_EQ(got.joins().size(), want.joins().size());
      EXPECT_EQ(got.joins()[0].build_tuples, want.joins()[0].build_tuples);
      EXPECT_EQ(got.joins()[0].probe_tuples, want.joins()[0].probe_tuples);
      EXPECT_EQ(got.joins()[0].rows_out, want.joins()[0].rows_out);
      EXPECT_EQ(got.source_tuples(), want.source_tuples());
      EXPECT_EQ(got.result_rows(), want.result_rows());
      EXPECT_EQ(got.pipelines().size(), want.pipelines().size());
    }
  }
}

TEST(Server, AllKindsConcurrentBitIdenticalToSerial) {
  ServerDb db;
  std::vector<std::unique_ptr<PlanNode>> plans;
  std::vector<QueryResult> serial;
  ThreadPool pool(2);
  for (JoinStrategy strategy :
       {JoinStrategy::kBHJ, JoinStrategy::kRJ, JoinStrategy::kBRJ}) {
    for (JoinKind kind : kAllKinds) {
      plans.push_back(KindPlan(db, kind));
      ExecOptions eo;
      eo.join_strategy = strategy;
      eo.num_threads = 2;
      serial.push_back(ExecuteQuery(*plans.back(), eo, nullptr, &pool));
    }
  }

  ServerOptions so;
  so.max_concurrent = 4;
  so.threads_per_query = 2;
  QueryServer server(so);
  Session session = server.OpenSession();
  std::vector<QueryHandlePtr> handles;
  size_t q = 0;
  for (JoinStrategy strategy :
       {JoinStrategy::kBHJ, JoinStrategy::kRJ, JoinStrategy::kBRJ}) {
    for (JoinKind kind : kAllKinds) {
      (void)kind;
      ExecOptions eo;
      eo.join_strategy = strategy;
      handles.push_back(session.Submit(*plans[q++], eo));
    }
  }
  ASSERT_GE(server.max_concurrent(), 4);
  for (size_t i = 0; i < handles.size(); ++i) {
    const QueryResult& got = handles[i]->Wait();
    ASSERT_EQ(handles[i]->state(), QueryState::kDone) << "query " << i;
    // Integer-only aggregates: zero tolerance, truly bit-identical.
    EXPECT_TRUE(got.ApproxEquals(serial[i], 0.0)) << "query " << i;
  }
  EXPECT_EQ(server.queries_done(), handles.size());
}

TEST(Server, BudgetContentionTwoHybridJoinsBothComplete) {
  // Two identical mid-size joins; the shared budget is far below one
  // build side, so under fair-share arbitration both must go out-of-core
  // (hybrid-hash) and still finish with bit-identical results.
  MicroWorkload w = MakeSizedWorkload(1 << 13, 1 << 15);
  auto plan_a = CountJoinPlan(w);
  auto plan_b = CountJoinPlan(w);

  ExecOptions eo;
  eo.join_strategy = JoinStrategy::kBHJ;
  eo.num_threads = 2;
  ThreadPool pool(2);
  QueryResult reference = ExecuteQuery(*plan_a, eo, nullptr, &pool);

  ScopedMemoryBudget scoped(128 * 1024);
  ServerOptions so;
  so.max_concurrent = 2;
  so.threads_per_query = 2;
  QueryServer server(so);
  Session session = server.OpenSession();
  QueryHandlePtr ha = session.Submit(*plan_a, eo);
  QueryHandlePtr hb = session.Submit(*plan_b, eo);
  const QueryResult& ra = ha->Wait();
  const QueryResult& rb = hb->Wait();
  ASSERT_EQ(ha->state(), QueryState::kDone);
  ASSERT_EQ(hb->state(), QueryState::kDone);
  EXPECT_TRUE(ra.ApproxEquals(reference, 0.0));
  EXPECT_TRUE(rb.ApproxEquals(reference, 0.0));

  // Both queries were granted a fair share (half the budget) and at least
  // one join was pushed out-of-core by the governor.
  uint64_t spilled = 0;
  for (const QueryHandlePtr& h : {ha, hb}) {
    EXPECT_LE(h->granted_bytes(), 64u * 1024u);
    EXPECT_GT(h->granted_bytes(), 0u);
    for (const JoinMetrics& j : h->stats().metrics.joins()) {
      spilled += j.spill.partitions_spilled > 0 ? 1 : 0;
    }
  }
  EXPECT_GE(spilled, 1u);
  EXPECT_GT(MemoryGovernor::Global().denials(), 0u);
}

TEST(Server, MetricsJsonAndExplainCarryServerSection) {
  ServerDb db(300, 2000);
  auto plan = KindPlan(db, JoinKind::kInner);
  ExecOptions eo;
  eo.num_threads = 1;

  ServerOptions so;
  so.max_concurrent = 1;
  so.threads_per_query = 1;
  QueryServer server(so);
  Session session = server.OpenSession();
  QueryHandlePtr h = session.Submit(*plan, eo);
  h->Wait();
  ASSERT_EQ(h->state(), QueryState::kDone);

  const QueryMetrics& qm = h->stats().metrics;
  ASSERT_TRUE(qm.server.has_value());
  EXPECT_EQ(qm.server->query_id, h->query_id());
  EXPECT_EQ(qm.server->session_id, session.id());
  EXPECT_EQ(qm.server->state, "done");

  std::string json = qm.ToJson(/*include_timings=*/false);
  EXPECT_NE(json.find("\"server\":{\"query_id\":"), std::string::npos);
  EXPECT_NE(json.find("\"state\":\"done\""), std::string::npos);
  EXPECT_NE(json.find("\"spill_pressure\":"), std::string::npos);
  // Timings stay out of the stable form.
  EXPECT_EQ(json.find("queue_seconds"), std::string::npos);
  EXPECT_NE(qm.ToJson(true).find("queue_seconds"), std::string::npos);

  std::string analyze = ExplainAnalyzePlan(*plan, eo, h->stats());
  EXPECT_NE(analyze.find("server: query="), std::string::npos);
  EXPECT_NE(analyze.find("spill_pressure="), std::string::npos);

  // A standalone run stays byte-free of the server section.
  QueryStats standalone;
  ExecuteQuery(*plan, eo, &standalone);
  EXPECT_FALSE(standalone.metrics.server.has_value());
  EXPECT_EQ(standalone.metrics.ToJson(false).find("\"server\""),
            std::string::npos);
}

TEST(Server, ManySessionsInterleaved) {
  ServerDb db(800, 6000);
  auto plan = KindPlan(db, JoinKind::kInner);
  ExecOptions eo;
  QueryResult reference = ExecuteQuery(*plan, eo);

  ServerOptions so;
  so.max_concurrent = 3;
  so.threads_per_query = 1;
  so.admit_queue = 64;
  QueryServer server(so);
  std::vector<Session> sessions;
  for (int s = 0; s < 4; ++s) sessions.push_back(server.OpenSession());
  std::vector<QueryHandlePtr> handles;
  for (int round = 0; round < 3; ++round) {
    for (Session& session : sessions) {
      handles.push_back(session.Submit(*plan, eo));
    }
  }
  for (auto& h : handles) {
    EXPECT_TRUE(h->Wait().ApproxEquals(reference, 0.0));
    EXPECT_EQ(h->state(), QueryState::kDone);
  }
  // Session ids stamp through to the per-query record.
  EXPECT_EQ(handles[0]->session_id(), sessions[0].id());
  EXPECT_EQ(handles[3]->session_id(), sessions[3].id());
  EXPECT_EQ(server.queries_done(), handles.size());
  EXPECT_EQ(server.queries_rejected(), 0u);
}

}  // namespace
}  // namespace pjoin
