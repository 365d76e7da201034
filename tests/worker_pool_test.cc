// The persistent worker-pool runtime (engine/worker_pool.h): index
// coverage, degenerate inlining, nesting, and -- the properties the rest
// of the codebase rides on -- thread-count-invariant scan results when
// many query threads share the one pool concurrently (run under TSan by
// the tsan CI job) and over a skewed-shard store where within-shard chunk
// splitting kicks in.

#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "engine/engine.h"
#include "engine/parallel_scan.h"
#include "engine/worker_pool.h"
#include "gtest/gtest.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "util/random.h"

namespace pie {
namespace {

::testing::AssertionResult BitwiseEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure() << a << " and " << b << " differ";
}

TEST(WorkerPoolTest, HardwareThreadsIsClampedPositive) {
  EXPECT_GE(HardwareThreads(), 1);
}

TEST(WorkerPoolTest, ResolveParallelismHonorsExplicitRequests) {
  EXPECT_EQ(ResolveParallelism(1), 1);
  EXPECT_EQ(ResolveParallelism(7), 7);
  // Auto (0) resolves to something usable whatever the environment says.
  EXPECT_GE(ResolveParallelism(0), 1);
}

TEST(WorkerPoolTest, ParsePieThreadsAcceptsStrictPositiveIntegers) {
  struct Case {
    const char* text;
    int want;
  };
  for (const Case& c : {Case{"1", 1}, Case{"8", 8}, Case{"  8  ", 8},
                        Case{"+16", 16}, Case{"\t4\n", 4},
                        Case{"1048576", kMaxPieThreads}}) {
    bool invalid = true;
    EXPECT_EQ(ParsePieThreads(c.text, &invalid), c.want) << c.text;
    EXPECT_FALSE(invalid) << c.text;
  }
}

TEST(WorkerPoolTest, ParsePieThreadsRejectsEverythingElse) {
  // The strictness PIE_THREADS gets that atoi never gave it: empty,
  // garbage, trailing junk, zero, negatives, hex, floats, and overflow all
  // refuse instead of silently truncating.
  for (const char* text :
       {"", "   ", "0", "-4", "+-2", "+ 8", "8abc", "abc", "3.5", "0x8",
        "1e3", "1048577", "2147483648", "99999999999999999999"}) {
    bool invalid = false;
    EXPECT_EQ(ParsePieThreads(text, &invalid), 0) << text;
    EXPECT_TRUE(invalid) << text;
  }
}

TEST(WorkerPoolTest, StatsInvariantsHoldBeforeAndAfterWork) {
  WorkerPool& pool = WorkerPool::Global();
  const PoolStats before = pool.Stats();
  EXPECT_GE(before.generation, before.executed);
  EXPECT_LE(static_cast<uint64_t>(before.queued),
            before.generation - before.executed);

  std::atomic<int64_t> sum{0};
  pool.ParallelFor(512, 8, [&](int i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), int64_t{512} * 511 / 2);

  // Quiescent again (ParallelFor returns only after the full drain): every
  // published job has executed and nothing is left queued.
  const PoolStats after = pool.Stats();
  EXPECT_EQ(after.queued, 0);
  EXPECT_EQ(after.executed, after.generation);
  EXPECT_GE(after.generation, before.generation);
  // With idle workers the region above was published to the queue; on a
  // 1-hardware-thread host it legally degenerates to the inline loop.
  if (pool.max_parallelism() > 1) {
    EXPECT_GT(after.generation, before.generation);
  }
}

TEST(WorkerPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  constexpr int kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  for (auto& h : hits) h.store(0);
  WorkerPool::Global().ParallelFor(
      kCount, 8, [&](int i) { hits[static_cast<size_t>(i)].fetch_add(1); });
  for (int i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[static_cast<size_t>(i)].load(), 1) << i;
  }
}

TEST(WorkerPoolTest, DegenerateShapesRunInline) {
  int calls = 0;
  WorkerPool::Global().ParallelFor(0, 8, [&](int) { ++calls; });
  EXPECT_EQ(calls, 0);

  // count == 1 and max_parallelism == 1 both run on the calling thread.
  const std::thread::id caller = std::this_thread::get_id();
  std::thread::id ran_on;
  WorkerPool::Global().ParallelFor(
      1, 8, [&](int) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, caller);
  std::vector<std::thread::id> ids(5);
  WorkerPool::Global().ParallelFor(5, 1, [&](int i) {
    ids[static_cast<size_t>(i)] = std::this_thread::get_id();
  });
  for (const auto& id : ids) EXPECT_EQ(id, caller);
}

TEST(WorkerPoolTest, NestedParallelForCompletes) {
  // A shard-style fan-out whose every task runs its own chunk-style
  // fan-out on the same pool; the caller-participates design means this
  // terminates even with zero idle workers.
  constexpr int kOuter = 8;
  constexpr int kInner = 64;
  std::vector<std::atomic<int>> counts(kOuter);
  for (auto& c : counts) c.store(0);
  WorkerPool::Global().ParallelFor(kOuter, 4, [&](int o) {
    WorkerPool::Global().ParallelFor(kInner, 4, [&](int) {
      counts[static_cast<size_t>(o)].fetch_add(1);
    });
  });
  for (int o = 0; o < kOuter; ++o) {
    EXPECT_EQ(counts[static_cast<size_t>(o)].load(), kInner);
  }
}

// ---------------------------------------------------------------------------
// Concurrent scans sharing the pool (the TSan stress)
// ---------------------------------------------------------------------------

TEST(WorkerPoolTest, ConcurrentScansShareThePoolAndStayInvariant) {
  auto kernel = EstimationEngine::Global().Kernel(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
      SamplingParams({10.0, 8.0}));
  ASSERT_TRUE(kernel.ok());
  Rng rng(2026);
  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  for (int i = 0; i < 3000; ++i) {
    const double v0 = rng.UniformDouble(0.0, 15.0);
    const Outcome o = SampleOutcome(
        Scheme::kPps, SamplingParams({10.0, 8.0}),
        {v0, v0 * rng.UniformDouble(0.2, 1.0)}, rng);
    batch.Append(o.pps);
  }

  ScanOptions reference_options;
  reference_options.num_threads = 1;
  const ScanPartial reference =
      ScanBatch(**kernel, batch.view(), reference_options);

  std::atomic<int> mismatches{0};
  std::vector<std::thread> scanners;
  for (int t = 0; t < 4; ++t) {
    scanners.emplace_back([&] {
      for (int pass = 0; pass < 4; ++pass) {
        for (const int threads : {2, 8}) {
          ScanOptions options;
          options.num_threads = threads;
          const ScanPartial got = ScanBatch(**kernel, batch.view(), options);
          if (std::memcmp(&got.sum, &reference.sum, sizeof(double)) != 0 ||
              std::memcmp(&got.variance, &reference.variance,
                          sizeof(double)) != 0) {
            mismatches.fetch_add(1);
          }
        }
      }
    });
  }
  for (auto& scanner : scanners) scanner.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// ---------------------------------------------------------------------------
// Skewed-shard store: within-shard splitting, thread-count invariance
// ---------------------------------------------------------------------------

/// Keys rejection-sampled on ShardOf so most land in shard 0 -- the
/// Zipf-like hot-shard shape that used to serialize a query on one worker.
std::vector<uint64_t> SkewedKeys(const SketchStore& store, int total,
                                 Rng& rng) {
  std::vector<uint64_t> keys;
  keys.reserve(static_cast<size_t>(total));
  while (static_cast<int>(keys.size()) < total) {
    const uint64_t key = 1 + rng.UniformInt(1u << 22);
    // ~70% of keys forced into shard 0.
    if (store.ShardOf(key) != 0 &&
        static_cast<int>(keys.size()) % 10 < 7) {
      continue;
    }
    keys.push_back(key);
  }
  return keys;
}

TEST(WorkerPoolTest, SkewedStoreQueriesAreThreadCountInvariant) {
  SketchStoreOptions store_options;
  store_options.num_shards = 8;
  store_options.default_tau = 30.0;
  store_options.salt = 77;
  SketchStore store(store_options);
  Rng rng(4242);
  const auto keys = SkewedKeys(store, 6000, rng);
  for (size_t i = 0; i < keys.size(); ++i) {
    // Zipf-ish weights, correlated across the two instances.
    const double w = std::ceil(200.0 / (1.0 + static_cast<double>(i % 50)));
    store.Update(0, keys[i], w);
    if (i % 3 != 0) store.Update(1, keys[i], w * 0.5);
  }
  const auto snapshot = store.Snapshot();

  const QueryService one(snapshot, {/*num_threads=*/1});
  const auto max_one = one.MaxDominance(0, 1);
  const auto min_one = one.MinDominanceHt(0, 1);
  const auto l1_one = one.L1Distance(0, 1);
  ASSERT_TRUE(max_one.ok());
  ASSERT_TRUE(min_one.ok());
  ASSERT_TRUE(l1_one.ok());

  for (const int threads : {2, 4, 8}) {
    const QueryService many(snapshot, {threads});
    const auto max_many = many.MaxDominance(0, 1);
    const auto min_many = many.MinDominanceHt(0, 1);
    const auto l1_many = many.L1Distance(0, 1);
    ASSERT_TRUE(max_many.ok());
    ASSERT_TRUE(min_many.ok());
    ASSERT_TRUE(l1_many.ok());
    EXPECT_TRUE(BitwiseEqual(max_many->ht.estimate, max_one->ht.estimate));
    EXPECT_TRUE(BitwiseEqual(max_many->ht.variance, max_one->ht.variance));
    EXPECT_TRUE(BitwiseEqual(max_many->l.estimate, max_one->l.estimate));
    EXPECT_TRUE(BitwiseEqual(max_many->l.variance, max_one->l.variance));
    EXPECT_TRUE(BitwiseEqual(min_many->estimate, min_one->estimate));
    EXPECT_TRUE(BitwiseEqual(min_many->variance, min_one->variance));
    EXPECT_TRUE(BitwiseEqual(l1_many->estimate, l1_one->estimate));
    EXPECT_TRUE(BitwiseEqual(l1_many->variance, l1_one->variance));
  }
}

}  // namespace
}  // namespace pie
