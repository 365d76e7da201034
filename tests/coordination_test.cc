// Determinism regression tests for the reproducible-randomization contract
// (Section 7.2): seeds are stateless salted hashes, so identical salts must
// reproduce identical seeds -- and therefore identical samples -- across
// sketch instances, machines, and time (the PRN / shared-seed coordination
// method), while distinct salts must give independent samples. The known-
// seeds estimators silently break if this round-trip ever drifts.

#include <cstdint>
#include <vector>

#include "aggregate/distinct.h"
#include "aggregate/sketch.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "sampling/bottomk.h"
#include "store/pps_rows.h"
#include "store/streaming_sketch.h"
#include "util/hashing.h"
#include "util/random.h"

namespace pie {
namespace {

std::vector<WeightedItem> MakeItems(int n, uint64_t seed) {
  Rng rng(seed);
  std::vector<WeightedItem> items;
  items.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    items.push_back({static_cast<uint64_t>(i + 1),
                     1.0 + rng.UniformDouble(0, 9)});
  }
  return items;
}

TEST(CoordinationTest, SameSaltGivesIdenticalSeedsAcrossInstances) {
  const SeedFunction a(0xfeedULL);
  const SeedFunction b(0xfeedULL);  // a distinct instance, same salt
  for (uint64_t key = 0; key < 10000; ++key) {
    ASSERT_EQ(a(key), b(key)) << "seed drifted for key " << key;
  }
}

TEST(CoordinationTest, DistinctSaltsGiveDifferentSeeds) {
  const SeedFunction a(1);
  const SeedFunction b(2);
  int agreements = 0;
  for (uint64_t key = 0; key < 10000; ++key) {
    agreements += a(key) == b(key) ? 1 : 0;
  }
  EXPECT_EQ(agreements, 0)
      << "distinct salts should essentially never collide on 53-bit seeds";
}

TEST(CoordinationTest, PpsSketchBuildIsReproducible) {
  const auto items = MakeItems(20000, 42);
  const auto s1 = StreamingPpsSketch::Build(items, /*tau=*/40.0, /*salt=*/7);
  const auto s2 = StreamingPpsSketch::Build(items, /*tau=*/40.0, /*salt=*/7);
  ASSERT_EQ(s1.size(), s2.size());
  for (int i = 0; i < s1.size(); ++i) {
    EXPECT_EQ(s1.entries()[static_cast<size_t>(i)].key,
              s2.entries()[static_cast<size_t>(i)].key);
    EXPECT_EQ(s1.entries()[static_cast<size_t>(i)].weight,
              s2.entries()[static_cast<size_t>(i)].weight);
  }
}

TEST(CoordinationTest, SharedSaltCoordinatesPpsSamples) {
  // PRN method: with one shared salt, two instances with identical values
  // make identical inclusion decisions -- the samples coincide key for key.
  const auto items = MakeItems(20000, 43);
  const auto s1 = StreamingPpsSketch::Build(items, 40.0, /*salt=*/99);
  const auto s2 = StreamingPpsSketch::Build(items, 40.0, /*salt=*/99);
  for (const auto& e : s1.entries()) {
    double v = 0.0;
    EXPECT_TRUE(s2.Lookup(e.key, &v));
    EXPECT_EQ(v, e.weight);
  }
}

TEST(CoordinationTest, DistinctSaltsGiveIndependentPpsSamples) {
  // Independent sampling: overlap of two ~5% samples of the same instance
  // should be near 5% of either sample, far below full coordination.
  const auto items = MakeItems(20000, 44);
  const auto tau = FindPpsTauForExpectedSize(items, 1000.0);
  ASSERT_TRUE(tau.ok());
  const auto s1 = StreamingPpsSketch::Build(items, *tau, /*salt=*/501);
  const auto s2 = StreamingPpsSketch::Build(items, *tau, /*salt=*/502);
  int overlap = 0;
  for (const auto& e : s1.entries()) {
    overlap += s2.Lookup(e.key, nullptr) ? 1 : 0;
  }
  // E[overlap] = sum_h p_h^2 <= ~0.05 * |s1|; allow generous slack but rule
  // out coordination (which would give overlap == |s1|).
  EXPECT_LT(overlap, s1.size() / 4)
      << "distinct salts look coordinated: overlap " << overlap << " of "
      << s1.size();
}

TEST(CoordinationTest, SeedRoundTripClassifiesSelfSketchAsAllPresent) {
  // Shared-seed round-trip: recomputing seeds from the salt at estimation
  // time must agree with the decisions made at build time. Classifying a
  // binary sketch against a same-salt, same-keys sketch must put every
  // sampled key in F11 and certify nothing absent.
  std::vector<uint64_t> keys;
  for (uint64_t k = 1; k <= 50000; ++k) keys.push_back(k);
  const auto a = SampleBinaryInstance(keys, 0.1, /*salt=*/2011);
  const auto b = SampleBinaryInstance(keys, 0.1, /*salt=*/2011);
  ASSERT_EQ(a.keys.size(), b.keys.size());
  const auto c = ClassifyDistinct(a, b);
  EXPECT_EQ(c.f11, static_cast<int64_t>(a.keys.size()));
  EXPECT_EQ(c.f10, 0);
  EXPECT_EQ(c.f01, 0);
  EXPECT_EQ(c.f1q, 0);
  EXPECT_EQ(c.fq1, 0);
}

TEST(CoordinationTest, PairOutcomeSeedsMatchSeedFunctions) {
  // The union rows fed to the known-seeds estimators carry exactly the
  // seeds the SeedFunction reproduces from the salt.
  const auto items = MakeItems(1000, 45);
  const auto s1 = StreamingPpsSketch::Build(items, 20.0, /*salt=*/11);
  const auto s2 = StreamingPpsSketch::Build(items, 25.0, /*salt=*/12);
  const SeedFunction u1(11);
  const SeedFunction u2(12);
  OutcomeBatch batch;
  Outcome o;
  int rows = 0;
  for (const auto& item : items) {
    const bool in1 = item.weight >= u1(item.key) * s1.tau();
    const bool in2 = item.weight >= u2(item.key) * s2.tau();
    BuildPairUnion(PpsSource::Of(s1), PpsSource::Of(s2), &batch,
                   [&item](uint64_t key) { return key == item.key; });
    // A key gets a row iff some sketch sampled it.
    ASSERT_EQ(batch.size(), in1 || in2 ? 1 : 0) << item.key;
    if (batch.size() == 0) continue;
    ++rows;
    ExtractRow(batch.view(), 0, &o);
    EXPECT_EQ(o.pps.seed[0], u1(item.key));
    EXPECT_EQ(o.pps.seed[1], u2(item.key));
    // Build-time inclusion must equal the recomputed threshold event.
    EXPECT_EQ(o.pps.sampled[0] != 0, in1);
    EXPECT_EQ(o.pps.sampled[1] != 0, in2);
  }
  EXPECT_GT(rows, 0);
}

TEST(CoordinationTest, BottomKSameSaltIsReproducible) {
  const auto items = MakeItems(5000, 46);
  std::vector<uint64_t> keys;
  for (const auto& item : items) keys.push_back(item.key);
  const auto s1 = SampleBinaryBottomK(keys, 500, /*salt=*/77);
  const auto s2 = SampleBinaryBottomK(keys, 500, /*salt=*/77);
  EXPECT_EQ(s1.p, s2.p);
  EXPECT_EQ(s1.keys, s2.keys);
}

}  // namespace
}  // namespace pie
