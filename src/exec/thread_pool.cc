#include "exec/thread_pool.h"

#include <algorithm>

namespace pjoin {

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::clamp(num_threads, 1, kMaxWorkers)) {
  workers_.reserve(num_threads_ - 1);
  for (int i = 1; i < num_threads_; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::ParallelRun(const std::function<void(int)>& fn) {
  if (num_threads_ == 1) {
    fn(0);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &fn;
    pending_ = num_threads_ - 1;
    ++generation_;
  }
  cv_start_.notify_all();
  fn(0);
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
  job_ = nullptr;
}

void ThreadPool::WorkerLoop(int thread_id) {
  uint64_t seen_generation = 0;
  while (true) {
    const std::function<void(int)>* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_start_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) return;
      seen_generation = generation_;
      job = job_;
    }
    (*job)(thread_id);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) cv_done_.notify_one();
    }
  }
}

}  // namespace pjoin
