#include "engine/worker_pool.h"

#include <atomic>
#include <cctype>
#include <cerrno>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <thread>

#include "obs/metrics.h"

namespace pie {

int HardwareThreads() {
  const unsigned reported = std::thread::hardware_concurrency();
  return reported == 0 ? 1 : static_cast<int>(reported);
}

int ParsePieThreads(const char* text, bool* invalid) {
  *invalid = true;
  if (text == nullptr) return 0;
  const char* p = text;
  while (std::isspace(static_cast<unsigned char>(*p))) ++p;
  if (*p == '\0') return 0;  // empty / whitespace-only
  // strtol accepts leading '-' and hex/octal prefixes; restrict to an
  // optional '+' and decimal digits so "-4", "0x8", and "8abc" are all
  // rejected instead of silently truncated.
  const char* digits = (*p == '+') ? p + 1 : p;
  if (*digits < '0' || *digits > '9') return 0;
  errno = 0;
  char* end = nullptr;
  const long parsed = std::strtol(p, &end, 10);
  if (errno == ERANGE) return 0;  // overflow
  while (std::isspace(static_cast<unsigned char>(*end))) ++end;
  if (*end != '\0') return 0;  // trailing garbage
  if (parsed < 1 || parsed > kMaxPieThreads) return 0;
  *invalid = false;
  return static_cast<int>(parsed);
}

int ResolveParallelism(int requested) {
  if (requested >= 1) return requested;
  static const int auto_width = [] {
    if (const char* env = std::getenv("PIE_THREADS")) {
      bool invalid = false;
      const int parsed = ParsePieThreads(env, &invalid);
      if (!invalid) return parsed;
      obs::MetricsRegistry::Global()
          .GetCounter("pie_config_errors_total",
                      "Invalid configuration values rejected at startup",
                      {{"var", "PIE_THREADS"}})
          .Increment();
      std::fprintf(stderr,
                   "pie: ignoring invalid PIE_THREADS=\"%s\" (expected a "
                   "positive integer <= %d); using %d hardware threads\n",
                   env, kMaxPieThreads, HardwareThreads());
    }
    return HardwareThreads();
  }();
  return auto_width;
}

namespace {

/// Pool instrumentation handles, registered eagerly when the pool is
/// created so every dump contains the families even before (or without)
/// any parallel work -- a 1-CPU host degenerates every region inline but
/// still reports pie_pool_parallel_for_total.
struct PoolMetrics {
  obs::Counter& regions;
  obs::Counter& tasks;
  obs::Histogram& queue_wait;
  obs::Histogram& run;
  obs::Gauge& active;

  static PoolMetrics& Get() {
    static PoolMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new PoolMetrics{
          reg.GetCounter("pie_pool_parallel_for_total",
                         "Parallel regions executed (including regions "
                         "degenerated to the caller's inline loop)"),
          reg.GetCounter("pie_pool_tasks_total",
                         "Loop indices executed across all parallel "
                         "regions"),
          reg.GetHistogram("pie_pool_queue_wait_seconds",
                           "Delay between a job being published and a "
                           "helper joining it", obs::LatencyBuckets()),
          reg.GetHistogram("pie_pool_run_seconds",
                           "Wall time of pool-executed parallel regions",
                           obs::LatencyBuckets()),
          reg.GetGauge("pie_pool_active_workers",
                       "Pool helpers currently draining a job"),
      };
    }();
    return *m;
  }
};

}  // namespace

/// One published parallel region: an atomic index counter helpers drain
/// alongside the caller. `next` is the only field touched outside the pool
/// mutex; everything else (helper budget, active helper count, queue
/// membership) is mutex-guarded, which also provides the release/acquire
/// edge making helpers' writes visible to the caller on return.
struct WorkerPool::Job {
  const std::function<void(int)>* fn = nullptr;
  int count = 0;
  std::atomic<int> next{0};
  /// Helpers still allowed to join (job leaves the queue at 0).
  int helper_budget = 0;
  /// Helpers currently draining; the caller returns once this hits 0
  /// after it finished its own drain and dequeued the job.
  int active = 0;
  bool queued = false;
  int64_t publish_ns = 0;  // queue-wait histogram reference point
};

class WorkerPool::Impl {
 public:
  explicit Impl(int num_workers) {
    PoolMetrics::Get();  // eager family registration
    for (int i = 0; i < num_workers; ++i) {
      std::thread([this] { WorkerLoop(); }).detach();
    }
  }

  void Run(Job* job) {
    job->publish_ns = obs::MonotonicNowNs();
    // Read the budget under the lock: once the job is queued, helpers
    // decrement it under mu_.
    int helper_budget;
    {
      std::lock_guard<std::mutex> lock(mu_);
      queue_.push_back(job);
      job->queued = true;
      ++jobs_published_;
      helper_budget = job->helper_budget;
    }
    if (helper_budget == 1) {
      work_cv_.notify_one();
    } else {
      work_cv_.notify_all();
    }
    Drain(job);  // the caller always participates
    std::unique_lock<std::mutex> lock(mu_);
    if (job->queued) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (*it == job) {
          queue_.erase(it);
          break;
        }
      }
      job->queued = false;
    }
    done_cv_.wait(lock, [job] { return job->active == 0; });
    ++jobs_executed_;
  }

  PoolStats StatsLocked() const {
    std::lock_guard<std::mutex> lock(mu_);
    PoolStats stats;
    stats.queued = static_cast<int>(queue_.size());
    stats.executed = jobs_executed_;
    stats.generation = jobs_published_;
    return stats;
  }

 private:
  static void Drain(Job* job) {
    for (;;) {
      const int i = job->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job->count) return;
      (*job->fn)(i);
    }
  }

  void WorkerLoop() {
    PoolMetrics& metrics = PoolMetrics::Get();
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return !queue_.empty(); });
      Job* job = queue_.front();
      ++job->active;
      if (--job->helper_budget == 0) {
        queue_.pop_front();
        job->queued = false;
      }
      const int64_t publish_ns = job->publish_ns;
      lock.unlock();
      metrics.queue_wait.Observe(
          static_cast<double>(obs::MonotonicNowNs() - publish_ns) * 1e-9);
      metrics.active.Add(1.0);
      Drain(job);
      metrics.active.Add(-1.0);
      lock.lock();
      if (--job->active == 0) done_cv_.notify_all();
    }
  }

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<Job*> queue_;  // jobs still accepting helpers
  // Published/executed job counts share mu_ with the deque so Stats()
  // sees one consistent world: executed <= generation and
  // queued <= generation - executed hold for every interleaving.
  uint64_t jobs_published_ = 0;
  uint64_t jobs_executed_ = 0;
};

WorkerPool::WorkerPool()
    // The Impl is leaked alongside the pool itself: workers park on its
    // queue forever, so it must outlive every static destructor.
    : impl_(new Impl(ResolveParallelism(0) - 1)),
      num_workers_(ResolveParallelism(0) - 1) {}

WorkerPool& WorkerPool::Global() {
  static WorkerPool* pool = new WorkerPool();  // leaked; LSan-reachable
  return *pool;
}

PoolStats WorkerPool::Stats() const { return impl_->StatsLocked(); }

void WorkerPool::ParallelFor(int count, int max_parallelism,
                             const std::function<void(int)>& fn) {
  if (count <= 0) return;
  PoolMetrics& metrics = PoolMetrics::Get();
  metrics.regions.Increment();
  metrics.tasks.Add(static_cast<uint64_t>(count));
  int width = max_parallelism < count ? max_parallelism : count;
  if (width > num_workers_ + 1) width = num_workers_ + 1;
  if (width <= 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  Job job;
  job.fn = &fn;
  job.count = count;
  job.helper_budget = width - 1;
  obs::ScopedTimer timer(metrics.run);
  impl_->Run(&job);
}

}  // namespace pie
