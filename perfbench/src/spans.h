#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

// In-memory span log for the traced pass. The benchmark records one span
// per call it makes into a layer's public function, named
// "<module>.<Class>.<Function>", and writes the log out once at the end.
// Recording is off (one relaxed load per call site) outside the traced
// window.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline int64_t NowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   // 0: root
  int64_t request = -1;  // request index; -1 outside a request
  uint64_t calls = 1;    // calls covered (a sweep spans many kernel calls)
};

class SpanLog {
 public:
  void Enable(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Reserve(size_t n) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.reserve(n);
  }

  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }

  void Add(const Span& span) {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  // One JSON object per line. Returns false if the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"request\":%lld,\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"calls\":%llu}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<long long>(s.request),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<unsigned long long>(s.calls));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// Runs `fn`, recording a span named `name` when `log` is enabled. Returns
// fn's result.
template <typename Fn>
auto Traced(SpanLog& log, const char* name, Fn&& fn, int64_t request = -1,
            uint64_t parent = 0, uint64_t calls = 1) {
  if (!log.enabled()) return std::forward<Fn>(fn)();
  const int64_t start = NowNanos();
  struct Recorder {
    SpanLog& log;
    Span span;
    ~Recorder() {
      span.end_ns = NowNanos();
      log.Add(span);
    }
  } rec{log, Span{name, start, 0, log.NextId(), parent, request, calls}};
  return std::forward<Fn>(fn)();
}

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
