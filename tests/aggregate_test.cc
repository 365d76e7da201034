// Tests for the aggregate layer (Sections 7-8): the data model (including
// the paper's Figure 5 worked example), per-instance sketches, distinct
// count, dominance norms, and the sample-size planner behind Figure 6.

#include <cmath>
#include <set>

#include "aggregate/dataset.h"
#include "aggregate/distinct.h"
#include "aggregate/dominance.h"
#include "aggregate/sample_size.h"
#include "aggregate/sketch.h"
#include "core/functions.h"
#include "engine/engine.h"
#include "gtest/gtest.h"
#include "store/pps_rows.h"
#include "store/streaming_sketch.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/sets.h"

namespace pie {
namespace {

// ---------------------------------------------------------------------------
// MultiInstanceData / the Figure 5 example
// ---------------------------------------------------------------------------

TEST(DatasetTest, PaperExampleValues) {
  const auto data = MultiInstanceData::PaperExample();
  EXPECT_EQ(data.num_instances(), 3);
  EXPECT_EQ(data.num_keys(), 6);
  EXPECT_EQ(data.Values(1), (std::vector<double>{15, 20, 10}));
  EXPECT_EQ(data.Values(2), (std::vector<double>{0, 10, 15}));
  EXPECT_EQ(data.Values(4), (std::vector<double>{5, 20, 0}));
  // Absent key reads as zeros.
  EXPECT_EQ(data.Values(42), (std::vector<double>{0, 0, 0}));
}

TEST(DatasetTest, PaperExamplePerKeyFunctions) {
  // Figure 5 (A) "Example functions f" rows. One cell of the paper's table
  // is inconsistent with its own data matrix: min(v1,v2) for key 4 is
  // printed as 0, but v(4) = (5, 20, 0) gives min(5, 20) = 5 (errata in
  // DESIGN.md).
  const auto data = MultiInstanceData::PaperExample();
  const std::vector<double> expected_max12 = {20, 10, 12, 20, 10, 10};
  const std::vector<double> expected_max123 = {20, 15, 15, 20, 15, 10};
  const std::vector<double> expected_min12 = {15, 0, 10, 5, 0, 10};
  const std::vector<double> expected_rg123 = {10, 15, 5, 20, 15, 0};
  for (uint64_t key = 1; key <= 6; ++key) {
    const auto v = data.Values(key);
    EXPECT_EQ(MaxOf({v[0], v[1]}), expected_max12[key - 1]) << key;
    EXPECT_EQ(MaxOf(v), expected_max123[key - 1]) << key;
    EXPECT_EQ(MinOf({v[0], v[1]}), expected_min12[key - 1]) << key;
    EXPECT_EQ(RangeOf(v), expected_rg123[key - 1]) << key;
  }
}

TEST(DatasetTest, PaperExampleAggregates) {
  // Section 7: "the max dominance norm over even keys and instances {1,2}
  // is 10+20+10 = 40. The L1 distance between instances {2,3} over keys
  // {1,2,3} is 10+5+3 = 18."
  const auto data = MultiInstanceData::PaperExample();
  const double max_even = data.SumAggregate(
      [](const std::vector<double>& v) { return MaxOf({v[0], v[1]}); },
      [](uint64_t key) { return key % 2 == 0; });
  EXPECT_EQ(max_even, 40.0);
  const double l1_23 = data.SumAggregate(
      [](const std::vector<double>& v) { return std::fabs(v[1] - v[2]); },
      [](uint64_t key) { return key <= 3; });
  EXPECT_EQ(l1_23, 18.0);
}

TEST(DatasetTest, InstanceItemsAreSparse) {
  const auto data = MultiInstanceData::PaperExample();
  const auto items = data.InstanceItems(0);
  EXPECT_EQ(items.size(), 5u);  // key 2 has value 0 in instance 1
  for (const auto& item : items) EXPECT_GT(item.weight, 0.0);
  EXPECT_DOUBLE_EQ(data.InstanceTotal(0), 15 + 10 + 5 + 10 + 10);
}

TEST(DatasetTest, SetOverwrites) {
  MultiInstanceData data(2);
  data.Set(7, 0, 3.0);
  data.Set(7, 0, 5.0);
  EXPECT_EQ(data.Values(7)[0], 5.0);
  EXPECT_EQ(data.num_keys(), 1);
}

// ---------------------------------------------------------------------------
// PPS sketches and their union rows
// ---------------------------------------------------------------------------

std::vector<WeightedItem> ZipfishItems(int n, Rng& rng) {
  std::vector<WeightedItem> items;
  for (int i = 0; i < n; ++i) {
    items.push_back(
        {static_cast<uint64_t>(i + 1), std::ceil(100.0 / (1 + rng.UniformInt(50)))});
  }
  return items;
}

TEST(SketchTest, InclusionMatchesSeedRule) {
  Rng rng(3);
  const auto items = ZipfishItems(200, rng);
  const double tau = 50.0;
  const auto sketch = StreamingPpsSketch::Build(items, tau, /*salt=*/9);
  const SeedFunction seed(9);
  std::set<uint64_t> in_sketch;
  for (const auto& e : sketch.entries()) in_sketch.insert(e.key);
  for (const auto& item : items) {
    const bool expected = item.weight >= seed(item.key) * tau;
    EXPECT_EQ(in_sketch.count(item.key) > 0, expected) << item.key;
    double v = 0;
    EXPECT_EQ(sketch.Lookup(item.key, &v), expected);
    if (expected) {
      EXPECT_EQ(v, item.weight);
    }
  }
}

TEST(SketchTest, FindTauHitsExpectedSize) {
  Rng rng(5);
  const auto items = ZipfishItems(500, rng);
  for (double target : {10.0, 50.0, 250.0}) {
    auto tau = FindPpsTauForExpectedSize(items, target);
    ASSERT_TRUE(tau.ok());
    double expected = 0.0;
    for (const auto& item : items) {
      expected += std::fmin(1.0, item.weight / *tau);
    }
    EXPECT_NEAR(expected, target, 1e-6 * target);
  }
}

TEST(SketchTest, FindTauRejectsBadTargets) {
  Rng rng(7);
  const auto items = ZipfishItems(20, rng);
  EXPECT_FALSE(FindPpsTauForExpectedSize(items, 0.0).ok());
  EXPECT_FALSE(FindPpsTauForExpectedSize(items, 21.0).ok());
  EXPECT_TRUE(FindPpsTauForExpectedSize(items, 20.0).ok());
}

double ExpectedPpsSize(const std::vector<WeightedItem>& items, double tau) {
  double s = 0.0;
  for (const auto& item : items) {
    if (item.weight > 0) s += std::fmin(1.0, item.weight / tau);
  }
  return s;
}

TEST(SketchTest, FindTauTargetEqualsItemCount) {
  // target == #items demands inclusion probability 1 everywhere, i.e.
  // tau <= min weight -- including when weights span orders of magnitude.
  const std::vector<WeightedItem> items = {
      {1, 1e-6}, {2, 3.0}, {3, 250.0}, {4, 0.5}};
  const auto tau = FindPpsTauForExpectedSize(items, 4.0);
  ASSERT_TRUE(tau.ok());
  EXPECT_LE(*tau, 1e-6);
  EXPECT_EQ(ExpectedPpsSize(items, *tau), 4.0);
}

TEST(SketchTest, FindTauSingleItemInput) {
  const std::vector<WeightedItem> items = {{42, 7.0}};
  const auto exact = FindPpsTauForExpectedSize(items, 1.0);
  ASSERT_TRUE(exact.ok());
  EXPECT_LE(*exact, 7.0);
  EXPECT_EQ(ExpectedPpsSize(items, *exact), 1.0);

  // Fractional target: min(1, 7/tau) = 0.4 at tau = 17.5.
  const auto fractional = FindPpsTauForExpectedSize(items, 0.4);
  ASSERT_TRUE(fractional.ok());
  EXPECT_NEAR(*fractional, 17.5, 1e-9);
}

TEST(SketchTest, FindTauAllEqualWeights) {
  const std::vector<WeightedItem> items(10, WeightedItem{0, 3.0});
  std::vector<WeightedItem> keyed = items;
  for (size_t i = 0; i < keyed.size(); ++i) {
    keyed[i].key = static_cast<uint64_t>(i + 1);
  }
  // Full-size target resolves without bisection (tau = the shared weight).
  const auto full = FindPpsTauForExpectedSize(keyed, 10.0);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(*full, 3.0);
  // Half-size target: min(1, 3/tau) = 0.5 at tau = 6.
  const auto half = FindPpsTauForExpectedSize(keyed, 5.0);
  ASSERT_TRUE(half.ok());
  EXPECT_NEAR(*half, 6.0, 1e-9);
  EXPECT_NEAR(ExpectedPpsSize(keyed, *half), 5.0, 1e-9);
}

TEST(SketchTest, FindTauTerminationIsUlpTight) {
  Rng rng(29);
  const auto items = ZipfishItems(300, rng);
  for (double target : {1.0, 37.5, 299.0}) {
    const auto tau = FindPpsTauForExpectedSize(items, target);
    ASSERT_TRUE(tau.ok());
    // The returned tau hits the target to near machine precision (the old
    // bound guaranteed only ~1e-12 relative bracket width).
    EXPECT_NEAR(ExpectedPpsSize(items, *tau), target, 1e-9 * target);
  }
}

TEST(SketchTest, SubsetSumUnbiased) {
  Rng rng(11);
  const auto items = ZipfishItems(100, rng);
  auto pred = [](uint64_t key) { return key % 3 == 1; };
  double truth = 0.0;
  for (const auto& item : items) {
    if (pred(item.key)) truth += item.weight;
  }
  RunningStat stat;
  for (uint64_t salt = 1; salt <= 20000; ++salt) {
    const auto sketch = StreamingPpsSketch::Build(items, 120.0, salt * 2654435761ULL);
    stat.Add(sketch.SubsetSumEstimate(pred));
  }
  EXPECT_NEAR(stat.mean(), truth, 4 * stat.standard_error());
}

TEST(SketchTest, PairOutcomeAssembly) {
  const std::vector<WeightedItem> items1 = {{1, 5.0}, {2, 3.0}, {3, 9.0}};
  const std::vector<WeightedItem> items2 = {{1, 2.0}, {4, 8.0}};
  const double tau = 6.0;
  const auto s1 = StreamingPpsSketch::Build(items1, tau, 100);
  const auto s2 = StreamingPpsSketch::Build(items2, tau, 200);
  const SeedFunction u1(100);
  const SeedFunction u2(200);
  // Rows: s1's sampled keys in arrival order, then s2's that s1 lacks.
  std::vector<uint64_t> keys;
  for (const auto& item : items1) {
    if (item.weight >= u1(item.key) * tau) keys.push_back(item.key);
  }
  for (const auto& item : items2) {
    if (item.weight >= u2(item.key) * tau &&
        !s1.Lookup(item.key, nullptr)) {
      keys.push_back(item.key);
    }
  }
  ASSERT_GE(keys.size(), 2u);  // keys 3 and 4 clear any threshold

  OutcomeBatch batch;
  BuildPairUnion(PpsSource::Of(s1), PpsSource::Of(s2), &batch);
  ASSERT_EQ(batch.size(), static_cast<int>(keys.size()));
  Outcome o;
  for (int i = 0; i < batch.size(); ++i) {
    const uint64_t key = keys[static_cast<size_t>(i)];
    ExtractRow(batch.view(), i, &o);
    EXPECT_EQ(o.pps.tau, (std::vector<double>{tau, tau}));
    EXPECT_EQ(o.pps.seed[0], u1(key));
    EXPECT_EQ(o.pps.seed[1], u2(key));
    double v1 = 0.0;
    double v2 = 0.0;
    EXPECT_EQ(o.pps.sampled[0] != 0, s1.Lookup(key, &v1)) << key;
    EXPECT_EQ(o.pps.sampled[1] != 0, s2.Lookup(key, &v2)) << key;
    EXPECT_EQ(o.pps.value[0], v1);
    EXPECT_EQ(o.pps.value[1], v2);
  }
}

// ---------------------------------------------------------------------------
// Distinct count (Section 8.1)
// ---------------------------------------------------------------------------

TEST(DistinctTest, ClassificationPartitionsSampledKeys) {
  const SetPair pair = MakeJaccardSetPair(2000, 0.5);
  const auto s1 = SampleBinaryInstance(pair.n1, 0.3, 111);
  const auto s2 = SampleBinaryInstance(pair.n2, 0.4, 222);
  const auto c = ClassifyDistinct(s1, s2);
  std::set<uint64_t> all(s1.keys.begin(), s1.keys.end());
  all.insert(s2.keys.begin(), s2.keys.end());
  EXPECT_EQ(static_cast<size_t>(c.f11 + c.f10 + c.f01 + c.f1q + c.fq1),
            all.size());
}

TEST(DistinctTest, SeedCertificatesAreSound) {
  // Every F10 key must be genuinely absent from N2 (the seed proof must
  // never misfire), and symmetrically for F01.
  const SetPair pair = MakeJaccardSetPair(3000, 0.3);
  const auto s1 = SampleBinaryInstance(pair.n1, 0.25, 5);
  const auto s2 = SampleBinaryInstance(pair.n2, 0.25, 6);
  const std::set<uint64_t> n2(pair.n2.begin(), pair.n2.end());
  const std::set<uint64_t> in_s2(s2.keys.begin(), s2.keys.end());
  const SeedFunction u2 = s2.seed_fn();
  for (uint64_t key : s1.keys) {
    if (!in_s2.count(key) && u2(key) < s2.p) {
      EXPECT_EQ(n2.count(key), 0u) << key;
    }
  }
}

TEST(DistinctTest, EstimatorsUnbiasedOverSalts) {
  const int n = 800;
  const SetPair pair = MakeJaccardSetPair(n, 0.4);
  const double p1 = 0.2, p2 = 0.3;
  RunningStat ht, l;
  for (uint64_t trial = 0; trial < 4000; ++trial) {
    const auto s1 = SampleBinaryInstance(pair.n1, p1, Mix64(2 * trial + 1));
    const auto s2 = SampleBinaryInstance(pair.n2, p2, Mix64(2 * trial + 2));
    const auto c = ClassifyDistinct(s1, s2);
    ht.Add(DistinctHtEstimate(c, p1, p2));
    l.Add(DistinctLEstimate(c, p1, p2));
  }
  const double truth = static_cast<double>(pair.union_size);
  EXPECT_NEAR(ht.mean(), truth, 4 * ht.standard_error());
  EXPECT_NEAR(l.mean(), truth, 4 * l.standard_error());
  // L must have visibly smaller variance.
  EXPECT_LT(l.sample_variance(), 0.75 * ht.sample_variance());
}

TEST(DistinctTest, VarianceFormulasMatchMonteCarlo) {
  const int n = 1000;
  const double jaccard = 0.6;
  const SetPair pair = MakeJaccardSetPair(n, jaccard);
  const double p = 0.25;
  RunningStat ht, l;
  for (uint64_t trial = 0; trial < 6000; ++trial) {
    const auto s1 = SampleBinaryInstance(pair.n1, p, Mix64(7919 * trial + 1));
    const auto s2 = SampleBinaryInstance(pair.n2, p, Mix64(7919 * trial + 2));
    const auto c = ClassifyDistinct(s1, s2);
    ht.Add(DistinctHtEstimate(c, p, p));
    l.Add(DistinctLEstimate(c, p, p));
  }
  const double d = static_cast<double>(pair.union_size);
  EXPECT_NEAR(ht.sample_variance(), DistinctHtVariance(d, p, p),
              0.08 * DistinctHtVariance(d, p, p));
  EXPECT_NEAR(l.sample_variance(),
              DistinctLVariance(d, pair.jaccard, p, p),
              0.08 * DistinctLVariance(d, pair.jaccard, p, p));
}

TEST(DistinctTest, SelectionPredicateRestrictsCount) {
  const SetPair pair = MakeJaccardSetPair(1000, 0.5);
  auto pred = [](uint64_t key) { return key % 2 == 0; };
  int64_t truth = 0;
  {
    std::set<uint64_t> uni(pair.n1.begin(), pair.n1.end());
    uni.insert(pair.n2.begin(), pair.n2.end());
    for (uint64_t key : uni) truth += pred(key) ? 1 : 0;
  }
  RunningStat l;
  for (uint64_t trial = 0; trial < 3000; ++trial) {
    const auto s1 = SampleBinaryInstance(pair.n1, 0.3, Mix64(31 * trial + 3));
    const auto s2 = SampleBinaryInstance(pair.n2, 0.3, Mix64(31 * trial + 4));
    l.Add(DistinctLEstimate(ClassifyDistinct(s1, s2, pred), 0.3, 0.3));
  }
  EXPECT_NEAR(l.mean(), static_cast<double>(truth), 4 * l.standard_error());
}

// ---------------------------------------------------------------------------
// Dominance norms (Section 8.2)
// ---------------------------------------------------------------------------

MultiInstanceData SmallTwoInstanceData(Rng& rng, int keys) {
  MultiInstanceData data(2);
  for (int k = 1; k <= keys; ++k) {
    const double v1 = rng.Bernoulli(0.8) ? std::ceil(rng.UniformDouble(1, 40)) : 0.0;
    const double v2 = rng.Bernoulli(0.8) ? std::ceil(rng.UniformDouble(1, 40)) : 0.0;
    if (v1 > 0) data.Set(static_cast<uint64_t>(k), 0, v1);
    if (v2 > 0) data.Set(static_cast<uint64_t>(k), 1, v2);
  }
  return data;
}

TEST(DominanceTest, MaxDominanceUnbiasedOverSalts) {
  Rng rng(13);
  const auto data = SmallTwoInstanceData(rng, 60);
  const double truth = data.SumAggregate(MaxOf);
  const double tau = 30.0;
  RunningStat ht, l;
  for (uint64_t trial = 0; trial < 8000; ++trial) {
    const auto s1 = StreamingPpsSketch::Build(data.InstanceItems(0), tau,
                                              Mix64(2 * trial + 1));
    const auto s2 = StreamingPpsSketch::Build(data.InstanceItems(1), tau,
                                              Mix64(2 * trial + 2));
    const auto est = EstimateMaxDominance(s1, s2);
    ht.Add(est.ht);
    l.Add(est.l);
  }
  EXPECT_NEAR(ht.mean(), truth, 4 * ht.standard_error());
  EXPECT_NEAR(l.mean(), truth, 4 * l.standard_error());
  EXPECT_LT(l.sample_variance(), 0.7 * ht.sample_variance());
}

TEST(DominanceTest, AnalyticVarianceMatchesMonteCarlo) {
  Rng rng(17);
  const auto data = SmallTwoInstanceData(rng, 40);
  const double tau = 25.0;
  const auto analytic = AnalyticMaxDominanceVariance(data, tau, tau);
  RunningStat ht, l;
  for (uint64_t trial = 0; trial < 20000; ++trial) {
    const auto s1 = StreamingPpsSketch::Build(data.InstanceItems(0), tau,
                                              Mix64(3 * trial + 1));
    const auto s2 = StreamingPpsSketch::Build(data.InstanceItems(1), tau,
                                              Mix64(3 * trial + 2));
    const auto est = EstimateMaxDominance(s1, s2);
    ht.Add(est.ht);
    l.Add(est.l);
  }
  EXPECT_NEAR(analytic.sum_max, data.SumAggregate(MaxOf), 1e-9);
  EXPECT_NEAR(ht.sample_variance(), analytic.ht, 0.06 * analytic.ht);
  EXPECT_NEAR(l.sample_variance(), analytic.l, 0.06 * analytic.l);
}

TEST(DominanceTest, MinDominanceUnbiased) {
  Rng rng(19);
  const auto data = SmallTwoInstanceData(rng, 50);
  const double truth = data.SumAggregate(MinOf);
  RunningStat stat;
  for (uint64_t trial = 0; trial < 12000; ++trial) {
    const auto s1 = StreamingPpsSketch::Build(data.InstanceItems(0), 20.0,
                                              Mix64(5 * trial + 1));
    const auto s2 = StreamingPpsSketch::Build(data.InstanceItems(1), 20.0,
                                              Mix64(5 * trial + 2));
    stat.Add(EstimateMinDominanceHt(s1, s2));
  }
  EXPECT_NEAR(stat.mean(), truth, 4 * stat.standard_error());
}

TEST(DominanceTest, L1DistanceUnbiased) {
  Rng rng(23);
  const auto data = SmallTwoInstanceData(rng, 50);
  const double truth = data.SumAggregate([](const std::vector<double>& v) {
    return std::fabs(v[0] - v[1]);
  });
  RunningStat stat;
  for (uint64_t trial = 0; trial < 12000; ++trial) {
    const auto s1 = StreamingPpsSketch::Build(data.InstanceItems(0), 20.0,
                                              Mix64(7 * trial + 1));
    const auto s2 = StreamingPpsSketch::Build(data.InstanceItems(1), 20.0,
                                              Mix64(7 * trial + 2));
    stat.Add(EstimateL1Distance(s1, s2));
  }
  EXPECT_NEAR(stat.mean(), truth, 4 * stat.standard_error());
}

TEST(DominanceTest, FullySampledIsExact) {
  // tau below every value: both sketches exact, estimates equal the truth.
  Rng rng(29);
  const auto data = SmallTwoInstanceData(rng, 30);
  const auto s1 = StreamingPpsSketch::Build(data.InstanceItems(0), 0.5, 1);
  const auto s2 = StreamingPpsSketch::Build(data.InstanceItems(1), 0.5, 2);
  const auto est = EstimateMaxDominance(s1, s2);
  EXPECT_NEAR(est.ht, data.SumAggregate(MaxOf), 1e-9);
  EXPECT_NEAR(est.l, data.SumAggregate(MaxOf), 1e-9);
}

// ---------------------------------------------------------------------------
// Sample-size planning (Figure 6)
// ---------------------------------------------------------------------------

TEST(SampleSizeTest, CvDecreasesInP) {
  for (double j : {0.0, 0.5, 1.0}) {
    double last_ht = 1e30, last_l = 1e30;
    for (double p : {0.01, 0.05, 0.2, 0.8}) {
      const double cv_ht = DistinctCvHt(1e6, j, p);
      const double cv_l = DistinctCvL(1e6, j, p);
      EXPECT_LT(cv_ht, last_ht);
      EXPECT_LT(cv_l, last_l);
      EXPECT_LE(cv_l, cv_ht + 1e-12);  // L never needs more than HT
      last_ht = cv_ht;
      last_l = cv_l;
    }
  }
}

TEST(SampleSizeTest, SolverHitsTarget) {
  for (double n : {1e4, 1e7}) {
    for (double j : {0.0, 0.5, 0.9}) {
      for (double cv : {0.1, 0.02}) {
        const auto s_ht = RequiredSampleSizeHt(n, j, cv);
        const auto s_l = RequiredSampleSizeL(n, j, cv);
        ASSERT_TRUE(s_ht.ok());
        ASSERT_TRUE(s_l.ok());
        EXPECT_NEAR(DistinctCvHt(n, j, *s_ht / n), cv, 1e-3 * cv);
        EXPECT_NEAR(DistinctCvL(n, j, *s_l / n), cv, 1e-3 * cv);
        EXPECT_LE(*s_l, *s_ht);
      }
    }
  }
}

TEST(SampleSizeTest, AsymptoticRatioHalfAtJZero) {
  // Section 8.1: for J = 0 the L estimator needs a factor sqrt(1-J)/2 = 1/2
  // fewer samples than HT at the same accuracy (small-p regime).
  const auto s_ht = RequiredSampleSizeHt(1e8, 0.0, 0.1);
  const auto s_l = RequiredSampleSizeL(1e8, 0.0, 0.1);
  ASSERT_TRUE(s_ht.ok() && s_l.ok());
  EXPECT_NEAR(*s_l / *s_ht, 0.5, 0.02);
}

TEST(SampleSizeTest, HighJaccardNeedsConstantSamples) {
  // Section 8.1: when p > (1-J)/(2J), cv ~ sqrt(J/(2pN)): Theta(1) samples
  // suffice for fixed cv as n grows -- so s(L) grows much slower than
  // s(HT).
  const auto s_l_small = RequiredSampleSizeL(1e6, 1.0, 0.1);
  const auto s_l_large = RequiredSampleSizeL(1e8, 1.0, 0.1);
  const auto s_ht_large = RequiredSampleSizeHt(1e8, 1.0, 0.1);
  ASSERT_TRUE(s_l_small.ok() && s_l_large.ok() && s_ht_large.ok());
  // Near-constant in n.
  EXPECT_NEAR(*s_l_large / *s_l_small, 1.0, 0.1);
  EXPECT_LT(*s_l_large, 0.05 * *s_ht_large);
}

}  // namespace
}  // namespace pie
