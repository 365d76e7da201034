// The observability layer (src/obs/): sharded counter/gauge/histogram
// exactness, registry identity, trace span nesting and ring bounding, the
// concurrent writer/snapshot stress (run under TSan by the tsan CI job as
// ObsStress*), and -- the invariant the whole layer must uphold -- a
// registry-wide sweep proving instrumentation never perturbs estimator
// output bits, hammered or quiet, metrics ON or OFF (the sweep writes an
// FNV-1a digest of every sum/variance for the CI ON-vs-OFF comparison).

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/parallel_scan.h"
#include "engine/registry.h"
#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hashing.h"
#include "util/random.h"

namespace pie {
namespace {

::testing::AssertionResult BitwiseEqual(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ (bits 0x" << std::hex << ba
         << " vs 0x" << bb << ")";
}

#ifdef PIE_METRICS

TEST(ObsMetricsTest, CounterSumsExactlyAcrossThreads) {
  obs::Counter& counter = obs::MetricsRegistry::Global().GetCounter(
      "pie_test_threads_total", "test counter");
  const uint64_t before = counter.Value();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kPerThread; ++i) counter.Increment();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value() - before,
            static_cast<uint64_t>(kThreads) * kPerThread);
  counter.Add(5);
  EXPECT_EQ(counter.Value() - before,
            static_cast<uint64_t>(kThreads) * kPerThread + 5);
}

TEST(ObsMetricsTest, GaugeSetAndAdd) {
  obs::Gauge& gauge =
      obs::MetricsRegistry::Global().GetGauge("pie_test_gauge", "test gauge");
  gauge.Set(2.5);
  EXPECT_EQ(gauge.Value(), 2.5);
  gauge.Add(1.25);
  gauge.Add(-0.75);
  EXPECT_EQ(gauge.Value(), 3.0);
}

TEST(ObsMetricsTest, HistogramBucketBoundsAreInclusiveUpper) {
  obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "pie_test_bounds_seconds", "test histogram", {1.0, 2.0, 4.0});
  // Prometheus `le` semantics: a bound belongs to its own bucket; the
  // first value past the last bound lands in the overflow bucket.
  h.Observe(0.0);
  h.Observe(1.0);                            // == bound 0: bucket 0
  h.Observe(std::nextafter(1.0, 2.0));       // just past: bucket 1
  h.Observe(2.0);                            // == bound 1: bucket 1
  h.Observe(4.0);                            // == bound 2: bucket 2
  h.Observe(std::nextafter(4.0, 8.0));       // just past the last: overflow
  h.Observe(1e9);                            // overflow
  EXPECT_EQ(h.BucketCount(0), 2u);
  EXPECT_EQ(h.BucketCount(1), 2u);
  EXPECT_EQ(h.BucketCount(2), 1u);
  EXPECT_EQ(h.BucketCount(3), 2u);
  EXPECT_EQ(h.CountValue(), 7u);
  EXPECT_DOUBLE_EQ(h.SumValue(), 0.0 + 1.0 + std::nextafter(1.0, 2.0) + 2.0 +
                                     4.0 + std::nextafter(4.0, 8.0) + 1e9);
}

TEST(ObsMetricsTest, HistogramQuantileInterpolatesWithinBucket) {
  obs::Histogram& h = obs::MetricsRegistry::Global().GetHistogram(
      "pie_test_quantile_seconds", "test histogram", {1.0, 2.0, 4.0});
  for (int i = 0; i < 3; ++i) h.Observe(1.5);  // bucket 1
  h.Observe(3.0);                              // bucket 2
  const obs::MetricsSnapshot snapshot =
      obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricValue* m = snapshot.Find("pie_test_quantile_seconds");
  ASSERT_NE(m, nullptr);
  ASSERT_EQ(m->count, 4u);
  // target = 2 of 4 falls 2/3 into bucket (1, 2].
  EXPECT_NEAR(m->Quantile(0.5), 1.0 + (2.0 / 3.0), 1e-12);
  // The top observation interpolates to its bucket's upper bound.
  EXPECT_NEAR(m->Quantile(1.0), 4.0, 1e-12);
  EXPECT_LE(m->Quantile(0.0), m->Quantile(0.5));
  EXPECT_LE(m->Quantile(0.5), m->Quantile(0.99));
}

TEST(ObsMetricsTest, RegistryIdentityIsNamePlusLabels) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& a =
      reg.GetCounter("pie_test_identity_total", "h", {{"k", "1"}});
  obs::Counter& b =
      reg.GetCounter("pie_test_identity_total", "h", {{"k", "1"}});
  obs::Counter& c =
      reg.GetCounter("pie_test_identity_total", "h", {{"k", "2"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &c);
}

TEST(ObsMetricsTest, CallbackGaugeEvaluatesAtSnapshotTime) {
  auto& reg = obs::MetricsRegistry::Global();
  std::atomic<double> source{7.0};
  reg.RegisterCallbackGauge("pie_test_callback_gauge", "h",
                            [&source] { return source.load(); });
  // Find points into the snapshot, so each snapshot must outlive it.
  const obs::MetricsSnapshot before = reg.Snapshot();
  const obs::MetricValue* first = before.Find("pie_test_callback_gauge");
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->value, 7.0);
  source.store(9.0);
  const obs::MetricsSnapshot after = reg.Snapshot();
  const obs::MetricValue* second = after.Find("pie_test_callback_gauge");
  ASSERT_NE(second, nullptr);
  EXPECT_EQ(second->value, 9.0);
  // Detach from the stack-local before the test returns: later snapshots
  // (other tests, exit dumps) must not run a dangling callback.
  reg.RegisterCallbackGauge("pie_test_callback_gauge", "h",
                            [] { return 0.0; });
}

TEST(ObsTraceTest, SpansNestIntoRootTreesOnThisThread) {
  obs::SetSlowTraceThresholdNs(0);
  obs::ClearRecentTraces();
  {
    obs::ScopedSpan root("test/root");
    { obs::ScopedSpan child("test/child_a"); }
    {
      obs::ScopedSpan child("test/child_b");
      { obs::ScopedSpan grandchild("test/grandchild"); }
    }
  }
  const std::vector<obs::TraceSpan> traces = obs::RecentTraces();
  ASSERT_EQ(traces.size(), 1u);
  const obs::TraceSpan& root = traces[0];
  EXPECT_EQ(root.name, "test/root");
  ASSERT_EQ(root.children.size(), 2u);
  EXPECT_EQ(root.children[0].name, "test/child_a");
  EXPECT_EQ(root.children[1].name, "test/child_b");
  ASSERT_EQ(root.children[1].children.size(), 1u);
  EXPECT_EQ(root.children[1].children[0].name, "test/grandchild");
  EXPECT_GE(root.duration_ns, root.children[0].duration_ns);
  std::ostringstream os;
  obs::DumpTraces(os);
  EXPECT_NE(os.str().find("test/grandchild"), std::string::npos);
}

TEST(ObsTraceTest, RingIsBoundedAndThresholdFilters) {
  obs::SetSlowTraceThresholdNs(0);
  obs::ClearRecentTraces();
  const uint64_t completed_before = obs::TraceRootsCompleted();
  for (int i = 0; i < obs::kTraceRingCapacity + 10; ++i) {
    obs::ScopedSpan span("test/ring");
  }
  EXPECT_EQ(obs::RecentTraces().size(),
            static_cast<size_t>(obs::kTraceRingCapacity));
  EXPECT_EQ(obs::TraceRootsCompleted() - completed_before,
            static_cast<uint64_t>(obs::kTraceRingCapacity) + 10);

  // An hour-long threshold drops every root (still counted as completed).
  obs::SetSlowTraceThresholdNs(int64_t{3600} * 1000000000);
  obs::ClearRecentTraces();
  { obs::ScopedSpan span("test/fast"); }
  EXPECT_TRUE(obs::RecentTraces().empty());
  EXPECT_EQ(obs::TraceRootsCompleted() - completed_before,
            static_cast<uint64_t>(obs::kTraceRingCapacity) + 11);
  obs::SetSlowTraceThresholdNs(0);
}

// ---------------------------------------------------------------------------
// Concurrent writers vs snapshot/dump readers (the TSan stress)
// ---------------------------------------------------------------------------

TEST(ObsStressTest, ConcurrentWritersAndReadersStayConsistent) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& counter =
      reg.GetCounter("pie_test_stress_total", "stress counter");
  obs::Gauge& gauge = reg.GetGauge("pie_test_stress_gauge", "stress gauge");
  obs::Histogram& histogram = reg.GetHistogram(
      "pie_test_stress_seconds", "stress histogram", obs::LatencyBuckets());
  const uint64_t count_before = counter.Value();
  const uint64_t observed_before = histogram.CountValue();

  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 50000;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        counter.Increment();
        gauge.Set(static_cast<double>(t));
        histogram.Observe(1e-6 * static_cast<double>(i % 1000));
        if (i % 1024 == 0) {
          obs::ScopedSpan span("test/stress");
        }
      }
    });
  }
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snapshot = reg.Snapshot();
      EXPECT_GE(snapshot.SumValues("pie_test_stress_total"),
                static_cast<double>(count_before));
      std::ostringstream os;
      reg.DumpPrometheusText(os);
      reg.DumpJson(os);
      (void)obs::RecentTraces();
    }
  });
  for (auto& writer : writers) writer.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  EXPECT_EQ(counter.Value() - count_before,
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
  EXPECT_EQ(histogram.CountValue() - observed_before,
            static_cast<uint64_t>(kWriters) * kOpsPerWriter);
}

#else  // !PIE_METRICS

TEST(ObsMetricsTest, DisabledBuildIsInertButLinkable) {
  auto& reg = obs::MetricsRegistry::Global();
  obs::Counter& counter = reg.GetCounter("pie_test_off_total", "h");
  counter.Add(17);
  EXPECT_EQ(counter.Value(), 0u);
  obs::Histogram& h =
      reg.GetHistogram("pie_test_off_seconds", "h", obs::LatencyBuckets());
  h.Observe(1.0);
  EXPECT_EQ(h.CountValue(), 0u);
  EXPECT_TRUE(reg.Snapshot().metrics.empty());
  { obs::ScopedSpan span("test/off"); }
  EXPECT_TRUE(obs::RecentTraces().empty());
}

#endif  // PIE_METRICS

// ---------------------------------------------------------------------------
// The layer's load-bearing invariant: instrumentation never changes output
// bits. Registry-wide sweep, quiet vs hammered, identical in ON and OFF
// builds (CI compares the digests of the two configurations).
// ---------------------------------------------------------------------------

std::vector<double> SweepValues(const KernelEntry& entry,
                                const SamplingParams& params, Rng& rng) {
  const int r = params.r();
  std::vector<double> values(static_cast<size_t>(r), 0.0);
  if (entry.spec.function == Function::kOr) {
    for (double& v : values) v = rng.UniformDouble() < 0.5 ? 1.0 : 0.0;
    return values;
  }
  double scale = 10.0;
  if (entry.spec.scheme == Scheme::kPps) {
    for (double tau : params.per_entry) scale = std::fmax(scale, tau);
  }
  for (double& v : values) v = rng.UniformDouble(0.0, 1.5 * scale);
  return values;
}

void Fnv1aAdd(uint64_t* digest, double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  for (int byte = 0; byte < 8; ++byte) {
    *digest ^= (bits >> (8 * byte)) & 0xff;
    *digest *= 1099511628211ull;
  }
}

TEST(ObsDeterminismTest, SweepIsBitwiseIdenticalUnderInstrumentationLoad) {
  // Quiet pass, then the same scans while hammer threads flood the
  // registry with updates, snapshots, and spans. Identical bytes required:
  // metrics reads/writes share no state with estimator math.
  struct SweepResult {
    std::string spec;
    double sum;
    double variance;
  };
  const auto run_sweep = [](std::vector<SweepResult>* results) {
    results->clear();
    for (const auto& entry : KernelRegistry::Global().Entries()) {
      for (const auto& params : entry.example_params) {
        auto kernel = entry.factory(entry.spec, params);
        ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
        Rng rng(HashCombine(HashBytes(entry.spec.ToString()),
                            static_cast<uint64_t>(params.r())));
        OutcomeBatch batch;
        batch.Reset(entry.spec.scheme, params.r());
        for (int i = 0; i < 700; ++i) {
          const Outcome o = SampleOutcome(entry.spec.scheme, params,
                                          SweepValues(entry, params, rng),
                                          rng);
          if (entry.spec.scheme == Scheme::kOblivious) {
            batch.Append(o.oblivious);
          } else {
            batch.Append(o.pps);
          }
        }
        ScanOptions options;
        options.num_threads = 2;
        const ScanPartial partial =
            ScanBatch(**kernel, batch.view(), options);
        results->push_back(
            {entry.spec.ToString(), partial.sum, partial.variance});
      }
    }
  };

  std::vector<SweepResult> quiet;
  run_sweep(&quiet);  // warm-up: kernel statics, metric registrations
  run_sweep(&quiet);

  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int t = 0; t < 2; ++t) {
    hammers.emplace_back([&stop] {
      auto& reg = obs::MetricsRegistry::Global();
      obs::Counter& counter =
          reg.GetCounter("pie_test_hammer_total", "hammer");
      obs::Histogram& histogram = reg.GetHistogram(
          "pie_test_hammer_seconds", "hammer", obs::LatencyBuckets());
      while (!stop.load(std::memory_order_relaxed)) {
        counter.Add(3);
        histogram.Observe(1e-5);
        obs::ScopedSpan span("test/hammer");
        std::ostringstream os;
        reg.DumpPrometheusText(os);
      }
    });
  }
  std::vector<SweepResult> hammered;
  run_sweep(&hammered);
  stop.store(true, std::memory_order_relaxed);
  for (auto& hammer : hammers) hammer.join();

  ASSERT_EQ(quiet.size(), hammered.size());
  ASSERT_GT(quiet.size(), 0u);
  uint64_t digest = 14695981039346656037ull;  // FNV-1a offset basis
  for (size_t i = 0; i < quiet.size(); ++i) {
    EXPECT_EQ(quiet[i].spec, hammered[i].spec);
    EXPECT_TRUE(BitwiseEqual(quiet[i].sum, hammered[i].sum))
        << quiet[i].spec;
    EXPECT_TRUE(BitwiseEqual(quiet[i].variance, hammered[i].variance))
        << quiet[i].spec;
    Fnv1aAdd(&digest, quiet[i].sum);
    Fnv1aAdd(&digest, quiet[i].variance);
  }

  // CI runs this test in the ON and OFF trees and diffs the two digests:
  // compiling the instrumentation out must not move a single bit either.
  if (const char* path = std::getenv("PIE_OBS_DIGEST_FILE")) {
    std::ofstream out(path);
    char buf[32];
    std::snprintf(buf, sizeof buf, "%016llx\n",
                  static_cast<unsigned long long>(digest));
    out << buf;
  }
}

}  // namespace
}  // namespace pie
