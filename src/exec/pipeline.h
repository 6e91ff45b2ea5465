// Pipelines: chains of operators driven morsel-wise by worker threads.
//
// A query is a sequence of pipelines (Section 4.1 of the paper): each
// pipeline starts at a source (table scan, partition-pair scan, ...), pushes
// batches through its operator chain, and ends in a pipeline breaker (hash
// table build, radix partitioner, aggregate, result sink). The executor runs
// pipelines in dependency order; within a pipeline all workers pull morsels
// from the source until it is exhausted.
#ifndef PJOIN_EXEC_PIPELINE_H_
#define PJOIN_EXEC_PIPELINE_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/batch.h"
#include "exec/query_metrics.h"
#include "exec/thread_pool.h"
#include "storage/row_buffer.h"
#include "util/byte_counter.h"

namespace pjoin {

class ExecContext;

// Per-worker execution state handed to every operator call.
struct ThreadContext {
  int thread_id = 0;
  ByteCounter* bytes = nullptr;
  ExecContext* exec = nullptr;
};

// Shared execution state for one query run.
class ExecContext {
 public:
  ExecContext(ThreadPool* pool);

  ThreadPool* pool() { return pool_; }
  int num_threads() const { return num_threads_; }

  ByteCounter& bytes(int thread_id) { return bytes_[thread_id]; }

  // Raw per-thread counter array (indexed by pool thread id), for components
  // that run their own parallel regions (e.g., the radix partitioner).
  ByteCounter* bytes_array() { return bytes_.data(); }

  // Merged byte counts across workers (call after pipelines finish).
  ByteCounter MergedBytes() const;

  PhaseTimer& timer() { return timer_; }

  // Observability registry: pipelines register themselves and their
  // operators here when they run; the executor snapshots it into QueryStats.
  QueryMetrics& metrics() { return metrics_; }
  const QueryMetrics& metrics() const { return metrics_; }

  // Tuples read by all table-scan sources; the TPC-H throughput metric
  // divides this by wall time (Section 5.3 of the paper).
  void AddSourceTuples(uint64_t n) {
    source_tuples_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t source_tuples() const {
    return source_tuples_.load(std::memory_order_relaxed);
  }

  // Observed-cardinality feedback from pipeline breakers, keyed by post-order
  // join id. Replan-armed joins publish their output estimate as actuals
  // arrive (build staged, probe counted, output emitted); downstream joins
  // read the nearest upstream entry before resolving their own strategy.
  // Written from Prepare/Finish only — pipelines prepare and finish serially
  // — so no synchronization is needed.
  struct CardFeedback {
    uint64_t est_rows = 0;        // plan-time output estimate
    uint64_t corrected_rows = 0;  // runtime-corrected (or exact) output
    bool exact = false;           // true once the join's output was counted
  };
  void RecordCardFeedback(int join_id, const CardFeedback& fb) {
    card_feedback_[join_id] = fb;
  }
  const CardFeedback* FindCardFeedback(int join_id) const {
    auto it = card_feedback_.find(join_id);
    return it == card_feedback_.end() ? nullptr : &it->second;
  }

 private:
  ThreadPool* pool_;
  int num_threads_;
  std::vector<ByteCounter> bytes_;
  PhaseTimer timer_;
  QueryMetrics metrics_;
  std::atomic<uint64_t> source_tuples_{0};
  std::map<int, CardFeedback> card_feedback_;
};

// A pipeline operator. Operators form a singly linked chain; Consume pushes
// derived batches to `next()`. Per-tuple work happens in tight loops inside
// Consume, never through per-tuple virtual calls.
class Operator {
 public:
  virtual ~Operator() = default;

  // Called once before the workers start, after the chain is wired.
  virtual void Prepare(ExecContext& exec) { (void)exec; }

  // Called by each worker before its first morsel.
  virtual void Open(ThreadContext& ctx) { (void)ctx; }

  // Processes one input batch, possibly emitting batches downstream.
  virtual void Consume(Batch& batch, ThreadContext& ctx) = 0;

  // Called by each worker after the source is exhausted (flush buffers).
  virtual void Close(ThreadContext& ctx) { (void)ctx; }

  // Called once after all workers closed (merge thread-local state).
  virtual void Finish(ExecContext& exec) { (void)exec; }

  // Layout of the batches this operator emits.
  virtual const RowLayout* OutputLayout() const = 0;

  // Identity under which the pipeline driver registers this operator in
  // QueryMetrics (e.g. "filter"); `MetricsDetail` adds instance context
  // (a filter label, a join id).
  virtual const char* MetricsName() const { return "operator"; }
  virtual std::string MetricsDetail() const { return ""; }

  OperatorMetrics* metrics() const { return metrics_; }
  void set_metrics(OperatorMetrics* metrics) { metrics_ = metrics; }

  Operator* next() const { return next_; }
  void set_next(Operator* next) { next_ = next; }

 protected:
  // Counts one incoming batch (call at the top of Consume).
  void MetricsIn(const Batch& batch, const ThreadContext& ctx) {
    if (metrics_ != nullptr) metrics_->AddIn(ctx.thread_id, batch.size);
  }

  // Counts and forwards one outgoing batch to the next operator.
  void PushNext(Batch& batch, ThreadContext& ctx) {
    if (metrics_ != nullptr) {
      metrics_->AddOut(ctx.thread_id, batch.size, 1);
    }
    next_->Consume(batch, ctx);
  }

  Operator* next_ = nullptr;
  OperatorMetrics* metrics_ = nullptr;
};

// A pipeline source. ProduceMorsel is called repeatedly by each worker; it
// claims one morsel, pushes its batches into `consumer`, and returns false
// when no morsels remain.
class Source {
 public:
  virtual ~Source() = default;
  virtual void Prepare(ExecContext& exec) { (void)exec; }
  virtual void Open(ThreadContext& ctx) { (void)ctx; }
  virtual bool ProduceMorsel(Operator& consumer, ThreadContext& ctx) = 0;
  virtual void Close(ThreadContext& ctx) { (void)ctx; }
  virtual void Finish(ExecContext& exec) { (void)exec; }
  virtual const RowLayout* OutputLayout() const = 0;

  virtual const char* MetricsName() const { return "source"; }
  virtual std::string MetricsDetail() const { return ""; }

  OperatorMetrics* metrics() const { return metrics_; }
  void set_metrics(OperatorMetrics* metrics) { metrics_ = metrics; }

 protected:
  // Counts and forwards one produced batch into the pipeline head.
  void PushOut(Operator& consumer, Batch& batch, ThreadContext& ctx) {
    if (metrics_ != nullptr) {
      metrics_->AddOut(ctx.thread_id, batch.size, 1);
    }
    consumer.Consume(batch, ctx);
  }

  // Forwards buffered OutputLayout()-format rows batch-wise, without copying
  // (pages hold rows contiguously).
  void PushRows(Operator& consumer, const RowBuffer& rows, ThreadContext& ctx);

  OperatorMetrics* metrics_ = nullptr;
};

// One pipeline: source plus operator chain (non-owning pointers; the plan
// executor owns all operators).
class Pipeline {
 public:
  Pipeline() = default;

  void set_source(Source* source) { source_ = source; }
  void AddOperator(Operator* op) { ops_.push_back(op); }

  Source* source() const { return source_; }
  const std::vector<Operator*>& ops() const { return ops_; }

  // Label for debugging/benchmark output (e.g., "probe lineitem").
  std::string label;

  // Phase attributed to this pipeline's wall time in the bandwidth profile.
  JoinPhase timing_phase = JoinPhase::kProbePipeline;

  // Wires the chain and runs the pipeline to completion on the context pool.
  void Run(ExecContext& exec);

 private:
  Source* source_ = nullptr;
  std::vector<Operator*> ops_;
};

}  // namespace pjoin

#endif  // PJOIN_EXEC_PIPELINE_H_
