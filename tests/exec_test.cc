// Unit tests for src/exec: thread pool, morsel queue, batches, pipelines.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "exec/batch.h"
#include "exec/morsel.h"
#include "exec/pipeline.h"
#include "exec/thread_pool.h"

namespace pjoin {
namespace {

TEST(ThreadPool, RunsAllThreadIds) {
  for (int n : {1, 2, 4}) {
    ThreadPool pool(n);
    std::vector<std::atomic<int>> hits(n);
    pool.ParallelRun([&](int tid) { hits[tid].fetch_add(1); });
    for (int i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ThreadPool, ClampsWorkerCount) {
  EXPECT_EQ(ThreadPool(0).num_threads(), 1);
  ThreadPool pool(kMaxWorkers + 1);
  EXPECT_EQ(pool.num_threads(), kMaxWorkers);
  std::atomic<int> max_tid{0};
  pool.ParallelRun([&](int tid) {
    int seen = max_tid.load();
    while (tid > seen && !max_tid.compare_exchange_weak(seen, tid)) {
    }
  });
  EXPECT_EQ(max_tid.load(), kMaxWorkers - 1);
}

TEST(ThreadPool, ReusableAcrossRuns) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  for (int round = 0; round < 50; ++round) {
    pool.ParallelRun([&](int) { total.fetch_add(1); });
  }
  EXPECT_EQ(total.load(), 150);
}

TEST(MorselQueue, CoversRangeExactlyOnce) {
  MorselQueue queue(100000, 1024);
  std::vector<char> seen(100000, 0);
  ThreadPool pool(4);
  pool.ParallelRun([&](int) {
    while (true) {
      Morsel m = queue.Next();
      if (m.empty()) break;
      for (uint64_t i = m.begin; i < m.end; ++i) seen[i]++;
    }
  });
  for (char c : seen) EXPECT_EQ(c, 1);
}

TEST(MorselQueue, EmptyInput) {
  MorselQueue queue(0);
  EXPECT_TRUE(queue.Next().empty());
}

TEST(MorselQueue, LastMorselClamped) {
  MorselQueue queue(100, 64);
  Morsel a = queue.Next();
  Morsel b = queue.Next();
  EXPECT_EQ(a.size(), 64u);
  EXPECT_EQ(b.begin, 64u);
  EXPECT_EQ(b.end, 100u);
  EXPECT_TRUE(queue.Next().empty());
}

TEST(BatchScratch, AppendAndReuse) {
  RowLayout layout({{"v", DataType::kInt64, 8, 0}});
  BatchScratch scratch;
  scratch.Bind(&layout);
  Batch batch = scratch.Start();
  for (int64_t i = 0; i < 10; ++i) {
    std::byte* slot = scratch.AppendSlot(batch);
    layout.SetInt64(slot, 0, i);
  }
  EXPECT_EQ(batch.size, 10u);
  EXPECT_EQ(layout.GetInt64(batch.Row(7), 0), 7);
  EXPECT_FALSE(scratch.Full(batch));
  Batch second = scratch.Start();
  EXPECT_EQ(second.size, 0u);
}

// A trivial source: emits values [0, n) in batches.
class IotaSource : public Source {
 public:
  IotaSource(const RowLayout* layout, uint64_t n) : layout_(layout), queue_(n) {}

  bool ProduceMorsel(Operator& consumer, ThreadContext& ctx) override {
    Morsel m = queue_.Next();
    if (m.empty()) return false;
    BatchScratch scratch;
    scratch.Bind(layout_);
    Batch batch = scratch.Start();
    for (uint64_t i = m.begin; i < m.end; ++i) {
      layout_->SetInt64(scratch.AppendSlot(batch), 0, static_cast<int64_t>(i));
      if (scratch.Full(batch)) {
        consumer.Consume(batch, ctx);
        batch = scratch.Start();
      }
    }
    if (batch.size > 0) consumer.Consume(batch, ctx);
    return true;
  }
  const RowLayout* OutputLayout() const override { return layout_; }

 private:
  const RowLayout* layout_;
  MorselQueue queue_;
};

// A summing sink operator.
class SumSink : public Operator {
 public:
  explicit SumSink(const RowLayout* layout) : layout_(layout) {}
  void Consume(Batch& batch, ThreadContext&) override {
    int64_t local = 0;
    for (uint32_t i = 0; i < batch.size; ++i) {
      local += layout_->GetInt64(batch.Row(i), 0);
    }
    sum_.fetch_add(local, std::memory_order_relaxed);
  }
  const RowLayout* OutputLayout() const override { return layout_; }
  int64_t sum() const { return sum_.load(); }

 private:
  const RowLayout* layout_;
  std::atomic<int64_t> sum_{0};
};

TEST(Pipeline, SourceToSink) {
  RowLayout layout({{"v", DataType::kInt64, 8, 0}});
  const uint64_t n = 200000;
  IotaSource source(&layout, n);
  SumSink sink(&layout);
  ThreadPool pool(4);
  ExecContext exec(&pool);
  Pipeline pipeline;
  pipeline.set_source(&source);
  pipeline.AddOperator(&sink);
  pipeline.Run(exec);
  EXPECT_EQ(sink.sum(), static_cast<int64_t>(n * (n - 1) / 2));
}

TEST(Pipeline, TimerRecordsPhase) {
  RowLayout layout({{"v", DataType::kInt64, 8, 0}});
  IotaSource source(&layout, 1000);
  SumSink sink(&layout);
  ThreadPool pool(1);
  ExecContext exec(&pool);
  Pipeline pipeline;
  pipeline.set_source(&source);
  pipeline.AddOperator(&sink);
  pipeline.timing_phase = JoinPhase::kBuildPipeline;
  pipeline.Run(exec);
  EXPECT_GT(exec.timer().seconds(JoinPhase::kBuildPipeline), 0.0);
  EXPECT_EQ(exec.timer().seconds(JoinPhase::kJoin), 0.0);
}

TEST(ExecContext, SourceTupleAccounting) {
  ThreadPool pool(2);
  ExecContext exec(&pool);
  pool.ParallelRun([&](int) { exec.AddSourceTuples(10); });
  EXPECT_EQ(exec.source_tuples(), 20u);
}

}  // namespace
}  // namespace pjoin
