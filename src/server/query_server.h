// Multi-query server mode: a long-lived runtime executing many concurrent
// queries over the shared engine.
//
// The paper measures joins inside a real system that serves many queries at
// once; this layer promotes the one-shot ExecuteQuery engine to that shape.
// Three pieces:
//
//   * QueryServer -- owns `max_concurrent` executor slots, each a persistent
//     ThreadPool driven by one dispatcher thread, plus a bounded FIFO
//     admission queue. A submission beyond the queue bound is rejected
//     immediately (kRejected) instead of buffered without bound, so an
//     overloaded server sheds load at admission time rather than thrashing.
//   * Session -- a per-client handle that stamps submissions with a session
//     id. Sessions are cheap and single-threaded by design: open one per
//     client, as a client driver would.
//   * QueryHandle -- the future for one submitted query. It tracks the
//     admission state machine (queued -> admitted -> running -> done, or
//     rejected/failed), and after Wait() exposes the result plus the full
//     QueryStats of the run, including the server section (granted bytes,
//     spill-pressure events, queue wait) in metrics JSON / EXPLAIN ANALYZE.
//
// Isolation: every query executes with its own ExecContext, QueryMetrics and
// executor state on its slot's private pool -- nothing but the tables, the
// admission queue and the MemoryGovernor is shared, so concurrent results
// are bit-identical to serial runs. Memory is arbitrated across queries by
// the governor's fair-share grants (spill/memory_governor.h): the server
// registers a QueryGrant per admitted query and installs it on the slot's
// workers, so an oversubscribed pool pushes the greediest query into its
// spill path instead of failing anyone.
#ifndef PJOIN_SERVER_QUERY_SERVER_H_
#define PJOIN_SERVER_QUERY_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "engine/executor.h"
#include "engine/plan.h"
#include "exec/thread_pool.h"
#include "util/stopwatch.h"

namespace pjoin {

// Admission state machine. kQueued -> kAdmitted -> kRunning -> kDone is the
// normal path; kRejected is decided at Submit time (queue full); kFailed
// covers a run that threw (the engine's invariant checks abort instead, so
// this is effectively allocation failure).
enum class QueryState {
  kQueued,
  kAdmitted,
  kRunning,
  kDone,
  kFailed,
  kRejected,
};

const char* QueryStateName(QueryState state);

struct ServerOptions {
  int max_concurrent = 0;   // executor slots; 0 = PJOIN_MAX_CONCURRENT
  int admit_queue = 0;      // queue bound; 0 = PJOIN_ADMIT_QUEUE
  int threads_per_query = 0;  // per-slot pool width; 0 = PJOIN_SERVER_THREADS
};

class QueryServer;

// Shared between the submitting client and the executing dispatcher.
class QueryHandle {
 public:
  uint64_t query_id() const { return query_id_; }
  uint64_t session_id() const { return session_id_; }

  QueryState state() const;

  // Blocks until the query reaches a terminal state (kDone, kFailed, or
  // kRejected -- the latter two yield an empty result).
  const QueryResult& Wait();

  // Valid after Wait() returned with state kDone. stats().metrics carries
  // the per-query server section (ToJson "server", EXPLAIN ANALYZE line).
  const QueryStats& stats() const { return stats_; }

  // Position in the server-wide admission order (0-based); valid once the
  // query left the queue. Admission is FIFO over Submit order.
  uint64_t admission_seq() const;

  // Seconds spent waiting in the admission queue.
  double queue_seconds() const;

  // Tightest fair-share grant (bytes; 0 = unlimited) the query ran under,
  // and its spill-pressure denials, recorded at completion; valid after
  // Wait().
  uint64_t granted_bytes() const { return granted_bytes_; }
  uint64_t spill_pressure_events() const { return spill_pressure_events_; }

 private:
  friend class QueryServer;

  QueryHandle(uint64_t query_id, uint64_t session_id, const PlanNode* plan,
              ExecOptions options)
      : query_id_(query_id),
        session_id_(session_id),
        plan_(plan),
        options_(std::move(options)) {}

  const uint64_t query_id_;
  const uint64_t session_id_;
  const PlanNode* const plan_;  // caller keeps the plan alive until Wait()
  const ExecOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  QueryState state_ = QueryState::kQueued;
  uint64_t admission_seq_ = 0;
  double queue_seconds_ = 0;
  uint64_t granted_bytes_ = 0;
  uint64_t spill_pressure_events_ = 0;
  Stopwatch submit_watch_;
  QueryResult result_;
  QueryStats stats_;
};

using QueryHandlePtr = std::shared_ptr<QueryHandle>;

// Per-client handle. Not thread-safe: a session belongs to one client
// thread; concurrency comes from many sessions, not shared ones.
class Session {
 public:
  uint64_t id() const { return id_; }
  uint64_t queries_submitted() const { return submitted_; }

  // Submits `plan` for execution. The caller must keep the plan (and its
  // tables) alive until the returned handle's Wait() has returned.
  QueryHandlePtr Submit(const PlanNode& plan, const ExecOptions& options);

 private:
  friend class QueryServer;
  Session(QueryServer* server, uint64_t id) : server_(server), id_(id) {}

  QueryServer* server_;
  uint64_t id_;
  uint64_t submitted_ = 0;
};

class QueryServer {
 public:
  explicit QueryServer(ServerOptions options = {});

  // Drains: blocks until every admitted *and* queued query has completed,
  // then joins the dispatcher threads.
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  Session OpenSession();

  int max_concurrent() const { return max_concurrent_; }
  int queue_capacity() const { return queue_capacity_; }
  // Worker count of each slot's pool (clamped to kMaxWorkers).
  int threads_per_query() const { return slot_pools_.front()->num_threads(); }

  uint64_t queries_submitted() const;
  uint64_t queries_rejected() const;
  uint64_t queries_done() const;
  size_t queue_depth() const;

  // Test hooks: freeze/unfreeze admission so queue bounds and ordering can
  // be asserted deterministically (queries stay kQueued while paused).
  void PauseAdmission();
  void ResumeAdmission();

 private:
  friend class Session;

  QueryHandlePtr Submit(uint64_t session_id, const PlanNode& plan,
                        const ExecOptions& options);
  void DispatcherLoop(int slot);
  void RunQuery(const QueryHandlePtr& handle, ThreadPool* pool);

  int max_concurrent_;
  int queue_capacity_;

  mutable std::mutex mu_;
  std::condition_variable cv_dispatch_;
  std::deque<QueryHandlePtr> queue_;
  bool shutdown_ = false;
  bool paused_ = false;
  uint64_t next_query_id_ = 1;
  uint64_t next_session_id_ = 1;
  uint64_t next_admission_seq_ = 0;
  uint64_t submitted_ = 0;
  uint64_t rejected_ = 0;
  uint64_t done_ = 0;

  // One persistent pool per executor slot; slot i is driven only by
  // dispatcher i, so ParallelRun's non-reentrancy is never violated.
  std::vector<std::unique_ptr<ThreadPool>> slot_pools_;
  std::vector<std::thread> dispatchers_;
};

}  // namespace pjoin

#endif  // PJOIN_SERVER_QUERY_SERVER_H_
