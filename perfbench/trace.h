// In-memory span recorder of the benchmark driver.
//
// Every timed call in the driver goes through a Span, which always measures
// its interval with std::chrono::steady_clock and hands the duration back
// to the caller; the end-to-end metrics are built from those durations. The
// tracer stores the span (name, start, end, parent, pass id, work counts)
// only while it is enabled, so an untraced run pays two clock reads per
// span and nothing else. Spans are written out once, when the run ends.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into the tracer's records, -1 for a root
  int pass = -1;    // pass id the span belongs to, -1 outside any pass
  uint64_t items = 0;  // tuples, probes or queries the span processed
  uint64_t bytes = 0;  // bytes the span processed
};

class Tracer {
 public:
  // Enabling and disabling happens between phases, never while a client
  // thread is inside a span.
  void set_enabled(bool enabled) { enabled_.store(enabled); }
  bool enabled() const { return enabled_.load(); }

  // Reserves a record and returns its index.
  int Begin(std::string name, int parent, int pass, int64_t start_ns) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), start_ns, 0, parent, pass, 0, 0});
    return static_cast<int>(spans_.size()) - 1;
  }

  void End(int id, int64_t end_ns, uint64_t items, uint64_t bytes) {
    std::lock_guard<std::mutex> lock(mu_);
    SpanRecord& s = spans_[id];
    s.end_ns = end_ns;
    s.items = items;
    s.bytes = bytes;
  }

  // Call only after every span has ended.
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

// Scoped span. The innermost open span of the calling thread is the parent,
// unless the caller names one (a client thread working for a span that is
// open on another thread); a span without an explicit pass id inherits its
// parent's.
class Span {
 public:
  static constexpr int kInheritParent = -2;

  Span(Tracer& tracer, std::string name, int pass = -1,
       int parent = kInheritParent)
      : tracer_(tracer), pass_(pass) {
    if (parent == kInheritParent) {
      parent = stack().empty() ? -1 : stack().back().id;
      if (pass_ < 0 && !stack().empty()) pass_ = stack().back().pass;
    }
    start_ns_ = NowNs();
    if (tracer_.enabled()) {
      id_ = tracer_.Begin(std::move(name), parent, pass_, start_ns_);
    }
    stack().push_back({id_, pass_});
  }

  // Record index of the calling thread's innermost open span, or -1.
  static int CurrentId() { return stack().empty() ? -1 : stack().back().id; }

  ~Span() {
    if (open_) End();
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  // Closes the span and returns its duration in seconds. `items` and
  // `bytes` record how much work the span did, as a base for rates.
  double End(uint64_t items = 0, uint64_t bytes = 0) {
    const int64_t end_ns = NowNs();
    open_ = false;
    stack().pop_back();
    if (id_ >= 0) tracer_.End(id_, end_ns, items, bytes);
    return static_cast<double>(end_ns - start_ns_) * 1e-9;
  }

 private:
  struct Open {
    int id;
    int pass;
  };
  static std::vector<Open>& stack() {
    thread_local std::vector<Open> open;
    return open;
  }

  Tracer& tracer_;
  int pass_;
  int id_ = -1;
  int64_t start_ns_ = 0;
  bool open_ = true;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
