// In-memory span recorder for the benchmark's traced run.
//
// Spans are recorded only around the benchmark's own calls into the
// library's public functions -- nothing inside src/ is instrumented. Each
// thread appends to its own ThreadSpans (no locking on the hot path); the
// Tracer owns them all and is read only after every recording thread has
// been joined. Spans stay in memory and are written out once, when the
// run ends.
//
// A span name is "<layer>.<call>"; the text before the first '.' is the
// layer its self time is charged to. Self time is a span's duration minus
// the time its child spans cover (children run nested on the same thread,
// so they never overlap each other).

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

struct Span {
  const char* name = "";  // static storage
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    // index in the same thread's spans; -1 for a root
  uint64_t request = 0;   // shared by every span of one request
  int64_t items = 0;      // work counted at this boundary (records, rows...)
};

/// One thread's spans, in start order.
class ThreadSpans {
 public:
  /// Opens a span under the innermost open one. request 0 inherits the
  /// parent's request id.
  int32_t Begin(const char* name, uint64_t request) {
    Span span;
    span.name = name;
    span.parent = open_.empty() ? -1 : open_.back();
    span.request = request != 0 || open_.empty()
                       ? request
                       : spans_[static_cast<size_t>(open_.back())].request;
    spans_.push_back(span);
    const auto id = static_cast<int32_t>(spans_.size() - 1);
    open_.push_back(id);
    spans_.back().start_ns = NowNs();
    return id;
  }

  void End(int32_t id, const char* name, int64_t items) {
    const int64_t end = NowNs();
    Span& span = spans_[static_cast<size_t>(id)];
    span.end_ns = end;
    span.name = name;
    span.items = items;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null ThreadSpans makes it a no-op (the untraced run).
class ScopedSpan {
 public:
  ScopedSpan(ThreadSpans* thread, const char* name, uint64_t request = 0)
      : thread_(thread), name_(name) {
    if (thread_ != nullptr) id_ = thread_->Begin(name, request);
  }
  ~ScopedSpan() {
    if (thread_ != nullptr) thread_->End(id_, name_, items_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  void set_items(int64_t items) { items_ = items; }
  /// Renames the span before it closes (a call whose kind is known only
  /// after it returns, e.g. a snapshot that turned out clean or dirty).
  void set_name(const char* name) { name_ = name; }

 private:
  ThreadSpans* thread_;
  const char* name_;
  int32_t id_ = -1;
  int64_t items_ = 0;
};

/// Aggregate of every span with one name.
struct SpanStats {
  int64_t count = 0;
  int64_t total_ns = 0;
  int64_t items = 0;
  std::vector<int64_t> durations_ns;
};

class Tracer {
 public:
  /// A span list for the calling thread. Safe to call from any thread;
  /// the returned object is owned by the tracer and used by one thread.
  ThreadSpans* NewThread() {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.emplace_back();
    return &threads_.back();
  }

  uint64_t NextRequest() {
    return next_request_.fetch_add(1, std::memory_order_relaxed);
  }

  // The readers below require every recording thread to have finished.

  std::map<std::string, SpanStats> ByName() const {
    std::map<std::string, SpanStats> out;
    for (const ThreadSpans& thread : threads_) {
      for (const Span& span : thread.spans()) {
        SpanStats& stats = out[span.name];
        ++stats.count;
        stats.total_ns += span.end_ns - span.start_ns;
        stats.items += span.items;
        stats.durations_ns.push_back(span.end_ns - span.start_ns);
      }
    }
    return out;
  }

  /// Self nanoseconds per layer (span-name prefix before the first '.').
  std::map<std::string, int64_t> SelfNsByLayer() const {
    std::map<std::string, int64_t> out;
    for (const ThreadSpans& thread : threads_) {
      const std::vector<Span>& spans = thread.spans();
      std::vector<int64_t> self(spans.size());
      for (size_t i = 0; i < spans.size(); ++i) {
        self[i] = spans[i].end_ns - spans[i].start_ns;
      }
      for (const Span& span : spans) {
        if (span.parent >= 0) {
          self[static_cast<size_t>(span.parent)] -= span.end_ns - span.start_ns;
        }
      }
      for (size_t i = 0; i < spans.size(); ++i) {
        const std::string_view name = spans[i].name;
        out[std::string(name.substr(0, name.find('.')))] += self[i];
      }
    }
    return out;
  }

  size_t size() const {
    size_t n = 0;
    for (const ThreadSpans& thread : threads_) n += thread.spans().size();
    return n;
  }

  /// Writes every span as one JSON object per line ({"thread", "name",
  /// "start_ns", "end_ns", "parent", "request", "items"}); parent indexes
  /// the same thread's spans. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    int thread_id = 0;
    for (const ThreadSpans& thread : threads_) {
      for (const Span& span : thread.spans()) {
        std::fprintf(out,
                     "{\"thread\":%d,\"name\":\"%s\",\"start_ns\":%lld,"
                     "\"end_ns\":%lld,\"parent\":%d,\"request\":%llu,"
                     "\"items\":%lld}\n",
                     thread_id, span.name,
                     static_cast<long long>(span.start_ns),
                     static_cast<long long>(span.end_ns), span.parent,
                     static_cast<unsigned long long>(span.request),
                     static_cast<long long>(span.items));
      }
      ++thread_id;
    }
    return std::fclose(out) == 0;
  }

 private:
  std::mutex mu_;  // guards threads_ growth
  std::deque<ThreadSpans> threads_;
  std::atomic<uint64_t> next_request_{1};
};

}  // namespace perfbench
