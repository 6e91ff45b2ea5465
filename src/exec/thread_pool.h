// Persistent worker pool executing parallel regions.
//
// Morsel-driven parallelism (Leis et al., used by the paper's system) runs a
// fixed set of workers that pull morsels from a shared queue. The pool here
// provides the "run this function on N workers and wait" primitive that the
// pipeline driver builds on.
#ifndef PJOIN_EXEC_THREAD_POOL_H_
#define PJOIN_EXEC_THREAD_POOL_H_

#include <condition_variable>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace pjoin {

// Upper bound on the workers of any pool. Worker-indexed structures that are
// sized before a pool is known (hash-table build buffers, per-worker output
// buffers) hold this many slots.
constexpr int kMaxWorkers = 256;

class ThreadPool {
 public:
  // Creates a pool with `num_threads` workers, clamped to [1, kMaxWorkers].
  // Worker 0 is the calling thread: ParallelRun executes fn(0) inline, which
  // keeps single-threaded runs free of synchronization noise.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(thread_id) for thread_id in [0, num_threads) and blocks until all
  // invocations return. Not reentrant.
  void ParallelRun(const std::function<void(int)>& fn);

 private:
  void WorkerLoop(int thread_id);

  int num_threads_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t generation_ = 0;
  int pending_ = 0;
  bool shutdown_ = false;
};

}  // namespace pjoin

#endif  // PJOIN_EXEC_THREAD_POOL_H_
