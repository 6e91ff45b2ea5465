#include "server/query_server.h"

#include <exception>

#include "spill/memory_governor.h"
#include "util/check.h"
#include "util/env.h"

namespace pjoin {

const char* QueryStateName(QueryState state) {
  switch (state) {
    case QueryState::kQueued:
      return "queued";
    case QueryState::kAdmitted:
      return "admitted";
    case QueryState::kRunning:
      return "running";
    case QueryState::kDone:
      return "done";
    case QueryState::kFailed:
      return "failed";
    case QueryState::kRejected:
      return "rejected";
  }
  return "unknown";
}

QueryState QueryHandle::state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return state_;
}

const QueryResult& QueryHandle::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] {
    return state_ == QueryState::kDone || state_ == QueryState::kFailed ||
           state_ == QueryState::kRejected;
  });
  return result_;
}

uint64_t QueryHandle::admission_seq() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admission_seq_;
}

double QueryHandle::queue_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_seconds_;
}

QueryHandlePtr Session::Submit(const PlanNode& plan,
                               const ExecOptions& options) {
  ++submitted_;
  return server_->Submit(id_, plan, options);
}

QueryServer::QueryServer(ServerOptions options)
    : max_concurrent_(options.max_concurrent > 0 ? options.max_concurrent
                                                 : MaxConcurrentQueries()),
      queue_capacity_(options.admit_queue > 0 ? options.admit_queue
                                              : AdmitQueueCapacity()) {
  PJOIN_CHECK(max_concurrent_ >= 1);
  PJOIN_CHECK(queue_capacity_ >= 1);
  const int threads_per_query = options.threads_per_query > 0
                                    ? options.threads_per_query
                                    : ServerThreadsPerQuery();
  slot_pools_.reserve(max_concurrent_);
  dispatchers_.reserve(max_concurrent_);
  for (int slot = 0; slot < max_concurrent_; ++slot) {
    slot_pools_.push_back(std::make_unique<ThreadPool>(threads_per_query));
  }
  for (int slot = 0; slot < max_concurrent_; ++slot) {
    dispatchers_.emplace_back([this, slot] { DispatcherLoop(slot); });
  }
}

QueryServer::~QueryServer() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
    paused_ = false;  // a paused server must still drain on shutdown
  }
  cv_dispatch_.notify_all();
  for (std::thread& t : dispatchers_) t.join();
  PJOIN_CHECK(queue_.empty());
}

Session QueryServer::OpenSession() {
  std::lock_guard<std::mutex> lock(mu_);
  return Session(this, next_session_id_++);
}

QueryHandlePtr QueryServer::Submit(uint64_t session_id, const PlanNode& plan,
                                   const ExecOptions& options) {
  std::unique_lock<std::mutex> lock(mu_);
  PJOIN_CHECK_MSG(!shutdown_, "Submit on a shutting-down server");
  QueryHandlePtr handle(
      new QueryHandle(next_query_id_++, session_id, &plan, options));
  ++submitted_;
  if (queue_.size() >= static_cast<size_t>(queue_capacity_)) {
    ++rejected_;
    lock.unlock();
    std::lock_guard<std::mutex> hl(handle->mu_);
    handle->state_ = QueryState::kRejected;
    handle->cv_.notify_all();
    return handle;
  }
  queue_.push_back(handle);
  lock.unlock();
  cv_dispatch_.notify_one();
  return handle;
}

void QueryServer::DispatcherLoop(int slot) {
  ThreadPool* pool = slot_pools_[slot].get();
  while (true) {
    QueryHandlePtr handle;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_dispatch_.wait(lock, [this] {
        return (!paused_ && !queue_.empty()) || shutdown_;
      });
      if (queue_.empty() || paused_) {
        if (shutdown_) return;  // spurious-wake guard: paused + shutdown
        continue;
      }
      handle = queue_.front();
      queue_.pop_front();
      {
        std::lock_guard<std::mutex> hl(handle->mu_);
        handle->state_ = QueryState::kAdmitted;
        handle->admission_seq_ = next_admission_seq_++;
        handle->queue_seconds_ = handle->submit_watch_.ElapsedSeconds();
      }
    }
    RunQuery(handle, pool);
  }
}

void QueryServer::RunQuery(const QueryHandlePtr& handle, ThreadPool* pool) {
  MemoryGovernor& governor = MemoryGovernor::Global();
  MemoryGovernor::QueryGrant* grant = governor.BeginQuery();

  // Install the grant on every worker of this slot (worker 0 is the
  // dispatcher itself), so the engine's WouldFit/Account/Release calls are
  // charged to this query without any signature change.
  pool->ParallelRun(
      [grant](int) { MemoryGovernor::SetThreadGrant(grant); });

  {
    std::lock_guard<std::mutex> hl(handle->mu_);
    handle->state_ = QueryState::kRunning;
  }

  QueryResult result;
  QueryStats stats;
  bool failed = false;
  try {
    ExecOptions options = handle->options_;
    options.num_threads = pool->num_threads();
    result = ExecuteQuery(*handle->plan_, options, &stats, pool);
  } catch (const std::exception&) {
    failed = true;
  }

  // Snapshot the arbitration outcome before the grant dies, then clear the
  // thread-locals so a stale pointer can never leak into the next query.
  // min_granted is the tightest fair share the query ran under.
  const uint64_t granted = grant->min_granted.load(std::memory_order_relaxed);
  const uint64_t pressure =
      grant->pressure_events.load(std::memory_order_relaxed);
  pool->ParallelRun(
      [](int) { MemoryGovernor::SetThreadGrant(nullptr); });
  governor.EndQuery(grant);

  // Count the completion before publishing the terminal state: a waiter that
  // observes kDone must also observe the bumped queries_done() counter.
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++done_;
  }

  std::lock_guard<std::mutex> hl(handle->mu_);
  handle->granted_bytes_ = granted == UINT64_MAX ? 0 : granted;
  handle->spill_pressure_events_ = pressure;
  handle->state_ = failed ? QueryState::kFailed : QueryState::kDone;
  if (!failed) {
    stats.metrics.server = ServerMetrics{
        .query_id = handle->query_id_,
        .session_id = handle->session_id_,
        .state = QueryStateName(handle->state_),
        .granted_bytes = handle->granted_bytes_,
        .spill_pressure = pressure,
        .queue_seconds = handle->queue_seconds_};
    handle->result_ = std::move(result);
    handle->stats_ = std::move(stats);
  }
  handle->cv_.notify_all();
}

uint64_t QueryServer::queries_submitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return submitted_;
}

uint64_t QueryServer::queries_rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

uint64_t QueryServer::queries_done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return done_;
}

size_t QueryServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void QueryServer::PauseAdmission() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void QueryServer::ResumeAdmission() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_dispatch_.notify_all();
}

}  // namespace pjoin
