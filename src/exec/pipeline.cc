#include "exec/pipeline.h"

#include <algorithm>

#include "util/check.h"
#include "util/stopwatch.h"

namespace pjoin {

ExecContext::ExecContext(ThreadPool* pool)
    : pool_(pool),
      num_threads_(pool->num_threads()),
      bytes_(num_threads_),
      metrics_(num_threads_) {}

ByteCounter ExecContext::MergedBytes() const {
  ByteCounter merged;
  for (const auto& counter : bytes_) merged.Merge(counter);
  return merged;
}

void Source::PushRows(Operator& consumer, const RowBuffer& rows,
                      ThreadContext& ctx) {
  const RowLayout* layout = OutputLayout();
  rows.ForEachPage([&](const std::byte* page, uint32_t count) {
    for (uint32_t off = 0; off < count; off += kBatchCapacity) {
      Batch batch;
      batch.layout = layout;
      batch.rows = const_cast<std::byte*>(page) +
                   static_cast<size_t>(off) * layout->stride();
      batch.size = std::min<uint32_t>(kBatchCapacity, count - off);
      PushOut(consumer, batch, ctx);
    }
  });
}

void Pipeline::Run(ExecContext& exec) {
  PJOIN_CHECK(source_ != nullptr);
  PJOIN_CHECK(!ops_.empty());
  for (size_t i = 0; i + 1 < ops_.size(); ++i) {
    ops_[i]->set_next(ops_[i + 1]);
  }
  ops_.back()->set_next(nullptr);

  // Register this run with the observability layer. Registration happens
  // before the workers start, so the hot path only bumps pre-allocated
  // thread-local slots.
  PipelineMetrics* pm = exec.metrics().StartPipeline(label, timing_phase);
  source_->set_metrics(
      exec.metrics().RegisterOperator(source_->MetricsName(),
                                      source_->MetricsDetail()));
  for (Operator* op : ops_) {
    op->set_metrics(
        exec.metrics().RegisterOperator(op->MetricsName(),
                                        op->MetricsDetail()));
  }

  source_->Prepare(exec);
  for (Operator* op : ops_) op->Prepare(exec);

  Stopwatch watch;
  exec.pool()->ParallelRun([&](int thread_id) {
    ThreadContext ctx;
    ctx.thread_id = thread_id;
    ctx.bytes = &exec.bytes(thread_id);
    ctx.exec = &exec;
    Stopwatch worker_watch;
    source_->Open(ctx);
    for (Operator* op : ops_) op->Open(ctx);
    Operator& head = *ops_.front();
    uint64_t morsels = 0;
    while (source_->ProduceMorsel(head, ctx)) {
      ++morsels;
    }
    source_->Close(ctx);
    for (Operator* op : ops_) op->Close(ctx);
    pm->morsels_per_worker[thread_id] = morsels;
    pm->worker_seconds[thread_id] = worker_watch.ElapsedSeconds();
  });
  double elapsed = watch.ElapsedSeconds();
  pm->wall_seconds = elapsed;
  exec.timer().Add(timing_phase, elapsed);

  Stopwatch finish_watch;
  source_->Finish(exec);
  for (Operator* op : ops_) op->Finish(exec);
  pm->finish_seconds = finish_watch.ElapsedSeconds();
}

}  // namespace pjoin
