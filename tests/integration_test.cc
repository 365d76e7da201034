// Cross-module integration tests: the derivation engine vs the hand-coded
// closed forms over parameter grids, end-to-end mini versions of the paper
// figures, and randomized model stress tests of the derivation algorithms.

#include <cmath>
#include <functional>

#include "aggregate/dominance.h"
#include "aggregate/sketch.h"
#include "core/enumerate.h"
#include "core/functions.h"
#include "core/ht.h"
#include "core/max_l_three.h"
#include "core/max_oblivious.h"
#include "core/or_oblivious.h"
#include "deriver/algorithm1.h"
#include "deriver/algorithm2.h"
#include "deriver/model.h"
#include "deriver/properties.h"
#include "gtest/gtest.h"
#include "util/random.h"
#include "util/stats.h"
#include "workload/traffic.h"

namespace pie {
namespace {

using R = Rational;

int OrLOrderKey(const std::vector<int>& v) {
  int zeros = 0;
  for (int x : v) zeros += x == 0 ? 1 : 0;
  return zeros == static_cast<int>(v.size()) ? -1 : zeros;
}

int SparseKey(const std::vector<int>& v) {
  int pos = 0;
  for (int x : v) pos += x > 0 ? 1 : 0;
  return pos;
}

// ---------------------------------------------------------------------------
// Deriver vs closed forms across probability grids
// ---------------------------------------------------------------------------

class DeriverVsClosedFormTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(DeriverVsClosedFormTest, OrLAgreesExactly) {
  const auto [num, den] = GetParam();
  const R p(num, den);
  auto compiled = CompileModel(MakeObliviousModel<R>(
      {{R(0), R(1)}, {R(0), R(1)}}, {p, p}, true, OrS<R>));
  auto table = DeriveOrderBased(compiled, OrderByKey(compiled, OrLOrderKey));
  ASSERT_TRUE(table.ok());
  const OrLTwo closed(p.ToDouble(), p.ToDouble());
  auto var = VarianceByVector(compiled, *table);
  for (int v = 0; v < compiled.num_vectors; ++v) {
    const auto& idx = compiled.vector_values[v];
    EXPECT_NEAR(ToDouble(var[v]), closed.Variance(idx[0], idx[1]), 1e-9)
        << compiled.vector_desc[v];
  }
}

TEST_P(DeriverVsClosedFormTest, OrUAgreesExactly) {
  const auto [num, den] = GetParam();
  const R p(num, den);
  auto compiled = CompileModel(MakeObliviousModel<R>(
      {{R(0), R(1)}, {R(0), R(1)}}, {p, p}, true, OrS<R>));
  auto table = DeriveConstrained(compiled, BatchesByKey(compiled, SparseKey));
  ASSERT_TRUE(table.ok());
  const OrUTwo closed(p.ToDouble(), p.ToDouble());
  auto var = VarianceByVector(compiled, *table);
  for (int v = 0; v < compiled.num_vectors; ++v) {
    const auto& idx = compiled.vector_values[v];
    EXPECT_NEAR(ToDouble(var[v]), closed.Variance(idx[0], idx[1]), 1e-9)
        << compiled.vector_desc[v];
  }
}

INSTANTIATE_TEST_SUITE_P(RationalProbGrid, DeriverVsClosedFormTest,
                         ::testing::Values(std::pair{1, 2}, std::pair{1, 3},
                                           std::pair{1, 4}, std::pair{2, 3},
                                           std::pair{1, 5}, std::pair{4, 5},
                                           std::pair{1, 10}));

TEST(DeriverVsClosedFormTest, AsymmetricProbabilities) {
  // p1 != p2: derived OR^(L) still matches the closed form per outcome.
  auto compiled = CompileModel(MakeObliviousModel<R>(
      {{R(0), R(1)}, {R(0), R(1)}}, {R(1, 3), R(3, 5)}, true, OrS<R>));
  auto table = DeriveOrderBased(compiled, OrderByKey(compiled, OrLOrderKey));
  ASSERT_TRUE(table.ok());
  const OrLTwo closed(1.0 / 3, 0.6);
  auto var = VarianceByVector(compiled, *table);
  for (int v = 0; v < compiled.num_vectors; ++v) {
    const auto& idx = compiled.vector_values[v];
    EXPECT_NEAR(ToDouble(var[v]), closed.Variance(idx[0], idx[1]), 1e-9);
  }
}

// ---------------------------------------------------------------------------
// Paper-level optimality statements, checked through the deriver
// ---------------------------------------------------------------------------

TEST(OptimalityTest, HtIsOptimalForMinOnBinaryDomain) {
  // Section 4: min^(HT) is Pareto optimal for weight-oblivious sampling.
  // Check through the engine: the order-based derivation with ANY order
  // consistent with processing 0-containing vectors first reproduces the
  // HT estimator's variance; and no derived candidate dominates it.
  auto compiled = CompileModel(MakeObliviousModel<R>(
      {{R(0), R(2)}, {R(0), R(2)}}, {R(1, 2), R(1, 3)}, true, MinS<R>));
  // HT table: positive only on the all-sampled (2,2) outcome.
  std::vector<R> ht(static_cast<size_t>(compiled.num_outcomes), R(0));
  for (int o = 0; o < compiled.num_outcomes; ++o) {
    int consistent = 0, witness = -1;
    for (int v = 0; v < compiled.num_vectors; ++v) {
      if (compiled.Consistent(v, o)) {
        ++consistent;
        witness = v;
      }
    }
    if (consistent == 1 && !compiled.f[static_cast<size_t>(witness)].IsZero()) {
      ht[static_cast<size_t>(o)] = R(2) / (R(1, 2) * R(1, 3));
    }
  }
  ASSERT_TRUE(IsUnbiased(compiled, ht));

  // Candidate alternatives: sparse-first and dense-first derivations.
  auto a = DeriveConstrained(compiled, BatchesByKey(compiled, SparseKey));
  auto b = DeriveConstrainedOrder(compiled, OrderByKey(compiled, OrLOrderKey));
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_NE(CompareDominance(compiled, *a, ht), Dominance::kFirstDominates);
  EXPECT_NE(CompareDominance(compiled, *b, ht), Dominance::kFirstDominates);
}

TEST(OptimalityTest, RangeHtIsOptimalForTwoInstances) {
  // Section 4: RG^(HT) is Pareto optimal for r = 2 oblivious sampling.
  auto compiled = CompileModel(MakeObliviousModel<R>(
      {{R(0), R(1)}, {R(0), R(1)}}, {R(1, 2), R(1, 2)}, true, RangeS<R>));
  std::vector<R> ht(static_cast<size_t>(compiled.num_outcomes), R(0));
  for (int o = 0; o < compiled.num_outcomes; ++o) {
    int consistent = 0, witness = -1;
    for (int v = 0; v < compiled.num_vectors; ++v) {
      if (compiled.Consistent(v, o)) {
        ++consistent;
        witness = v;
      }
    }
    if (consistent == 1 && !compiled.f[static_cast<size_t>(witness)].IsZero()) {
      ht[static_cast<size_t>(o)] = R(4);  // 1/(1/2 * 1/2)
    }
  }
  ASSERT_TRUE(IsUnbiased(compiled, ht));
  auto a = DeriveConstrained(compiled, BatchesByKey(compiled, SparseKey));
  ASSERT_TRUE(a.ok());
  EXPECT_NE(CompareDominance(compiled, *a, ht), Dominance::kFirstDominates);
}

TEST(OptimalityTest, EveryDerivedEstimatorIsUndominatedByHt) {
  // L and U are Pareto optimal, so in particular HT never dominates them;
  // and since they use partial information, they dominate HT for OR/max.
  for (auto [num, den] : {std::pair{1, 2}, std::pair{1, 4}, std::pair{3, 4}}) {
    const R p(num, den);
    auto compiled = CompileModel(MakeObliviousModel<R>(
        {{R(0), R(1)}, {R(0), R(1)}}, {p, p}, true, OrS<R>));
    std::vector<R> ht(static_cast<size_t>(compiled.num_outcomes), R(0));
    for (int o = 0; o < compiled.num_outcomes; ++o) {
      int consistent = 0, witness = -1;
      for (int v = 0; v < compiled.num_vectors; ++v) {
        if (compiled.Consistent(v, o)) {
          ++consistent;
          witness = v;
        }
      }
      if (consistent == 1 &&
          !compiled.f[static_cast<size_t>(witness)].IsZero()) {
        ht[static_cast<size_t>(o)] = R(1) / (p * p);
      }
    }
    auto l = DeriveOrderBased(compiled, OrderByKey(compiled, OrLOrderKey));
    auto u = DeriveConstrained(compiled, BatchesByKey(compiled, SparseKey));
    ASSERT_TRUE(l.ok() && u.ok());
    EXPECT_EQ(CompareDominance(compiled, *l, ht), Dominance::kFirstDominates);
    EXPECT_EQ(CompareDominance(compiled, *u, ht), Dominance::kFirstDominates);
  }
}

// ---------------------------------------------------------------------------
// Randomized model stress tests
// ---------------------------------------------------------------------------

TEST(DeriverStressTest, RandomObliviousModelsStayConsistent) {
  // Random small oblivious models: whatever order we process vectors in,
  // Algorithm 1 (when it succeeds) must be exactly unbiased; the
  // constrained variant must additionally be nonnegative; and the
  // constrained table never dominates... is never dominated by the plain
  // one on vectors processed first.
  Rng rng(20110613);
  const std::vector<R> prob_pool = {R(1, 2), R(1, 3), R(1, 4), R(2, 3),
                                    R(3, 4), R(1, 5)};
  for (int trial = 0; trial < 30; ++trial) {
    const int r = 2;
    std::vector<std::vector<R>> domains;
    std::vector<R> probs;
    for (int i = 0; i < r; ++i) {
      const int levels = 2 + static_cast<int>(rng.UniformInt(2));
      std::vector<R> domain;
      for (int l = 0; l < levels; ++l) domain.push_back(R(l));
      domains.push_back(domain);
      probs.push_back(prob_pool[rng.UniformInt(prob_pool.size())]);
    }
    const bool use_max = rng.Bernoulli(0.5);
    auto compiled = CompileModel(MakeObliviousModel<R>(
        domains, probs, true, use_max ? MaxS<R> : MinS<R>));

    // Random processing order.
    std::vector<int> order(static_cast<size_t>(compiled.num_vectors));
    for (int v = 0; v < compiled.num_vectors; ++v) {
      order[static_cast<size_t>(v)] = v;
    }
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.UniformInt(i)]);
    }

    auto plain = DeriveOrderBased(compiled, order);
    if (plain.ok()) {
      EXPECT_TRUE(IsUnbiased(compiled, *plain)) << trial;
    }
    auto constrained = DeriveConstrainedOrder(compiled, order);
    if (constrained.ok()) {
      EXPECT_TRUE(IsUnbiased(compiled, *constrained)) << trial;
      EXPECT_TRUE(IsNonnegative(*constrained)) << trial;
      if (plain.ok() && IsNonnegative(*plain)) {
        // When the plain solution is already nonnegative they coincide.
        for (int o = 0; o < compiled.num_outcomes; ++o) {
          EXPECT_EQ((*plain)[static_cast<size_t>(o)],
                    (*constrained)[static_cast<size_t>(o)])
              << trial;
        }
      }
    }
  }
}

TEST(DeriverStressTest, ExistenceMatchesConstructive) {
  // On random weighted-binary models, the LP existence certificate must
  // agree with whether the constructive sparse-first derivation succeeds.
  Rng rng(7);
  const std::vector<R> prob_pool = {R(1, 5), R(1, 3), R(1, 2), R(2, 3),
                                    R(9, 10)};
  for (int trial = 0; trial < 40; ++trial) {
    std::vector<R> probs = {prob_pool[rng.UniformInt(prob_pool.size())],
                            prob_pool[rng.UniformInt(prob_pool.size())]};
    const bool seeds_known = rng.Bernoulli(0.5);
    auto compiled = CompileModel(
        MakeWeightedBinaryModel<R>(probs, seeds_known, OrS<R>));
    const bool exists = ExistsUnbiasedNonnegative(compiled).ok();
    auto derived = DeriveConstrained(compiled, BatchesByKey(compiled, SparseKey));
    EXPECT_EQ(exists, derived.ok())
        << probs[0].ToString() << "," << probs[1].ToString() << " known="
        << seeds_known;
    // Theory: with known seeds always feasible; with unknown seeds feasible
    // iff p1 + p2 >= 1.
    const bool expected = seeds_known || !(probs[0] + probs[1] < R(1));
    EXPECT_EQ(exists, expected);
  }
}

// ---------------------------------------------------------------------------
// End-to-end mini-Figure-7
// ---------------------------------------------------------------------------

TEST(EndToEndTest, MiniFigure7PipelineIsInternallyConsistent) {
  TrafficParams params;
  params.keys_per_instance = 1500;
  params.distinct_total = 2300;
  params.flows_per_instance = 4e4;
  const auto data = GenerateTraffic(params);
  const auto items1 = data.InstanceItems(0);
  const auto items2 = data.InstanceItems(1);
  const auto tau1 = FindPpsTauForExpectedSize(items1, 150.0);
  const auto tau2 = FindPpsTauForExpectedSize(items2, 150.0);
  ASSERT_TRUE(tau1.ok() && tau2.ok());

  // Analytic variance.
  const auto analytic = AnalyticMaxDominanceVariance(data, *tau1, *tau2, 1e-7);
  EXPECT_GT(analytic.ht / analytic.l, 1.9);
  EXPECT_LT(analytic.ht / analytic.l, 4.0);

  // Monte Carlo agreement (means and variances).
  RunningStat ht, l;
  for (uint64_t trial = 0; trial < 3000; ++trial) {
    const auto s1 =
        StreamingPpsSketch::Build(items1, *tau1, Mix64(2 * trial + 1));
    const auto s2 =
        StreamingPpsSketch::Build(items2, *tau2, Mix64(2 * trial + 2));
    const auto est = EstimateMaxDominance(s1, s2);
    ht.Add(est.ht);
    l.Add(est.l);
  }
  EXPECT_NEAR(ht.mean(), analytic.sum_max, 5 * ht.standard_error());
  EXPECT_NEAR(l.mean(), analytic.sum_max, 5 * l.standard_error());
  EXPECT_NEAR(ht.sample_variance(), analytic.ht, 0.15 * analytic.ht);
  EXPECT_NEAR(l.sample_variance(), analytic.l, 0.15 * analytic.l);
}

TEST(DeriverVsClosedFormTest, MaxLThreeMatchesDerivedOnThreeLevelDomain) {
  // Independent cross-validation of the permuted-prefix-sum construction:
  // Algorithm 1 on {0,1,2}^3 with the L(v) = #(entries < max) order must
  // produce exactly the variances of the closed-form MaxLThree, for
  // non-uniform probabilities.
  const double p1 = 0.5, p2 = 0.25, p3 = 0.75;
  auto compiled = CompileModel(MakeObliviousModel<double>(
      {{0, 1, 2}, {0, 1, 2}, {0, 1, 2}}, {p1, p2, p3}, true, MaxS<double>));
  auto order = OrderByKey(compiled, [](const std::vector<int>& vi) {
    const int mx = std::max(vi[0], std::max(vi[1], vi[2]));
    if (mx == 0) return -1;
    int below = 0;
    for (int x : vi) below += x < mx ? 1 : 0;
    return below;
  });
  auto table = DeriveOrderBased(compiled, order);
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE(IsUnbiased(compiled, *table));

  const MaxLThree closed(p1, p2, p3);
  auto var = VarianceByVector(compiled, *table);
  for (int v = 0; v < compiled.num_vectors; ++v) {
    const auto& idx = compiled.vector_values[static_cast<size_t>(v)];
    EXPECT_NEAR(var[static_cast<size_t>(v)],
                closed.Variance({static_cast<double>(idx[0]),
                                 static_cast<double>(idx[1]),
                                 static_cast<double>(idx[2])}),
                1e-8)
        << compiled.vector_desc[static_cast<size_t>(v)];
  }
}

TEST(EndToEndTest, LinearityOfSumAggregates) {
  // Section 7: sum-aggregate estimates are sums of per-key estimates, so
  // the estimate for a disjoint union of key sets is the sum of estimates.
  TrafficParams params;
  params.keys_per_instance = 800;
  params.distinct_total = 1200;
  params.flows_per_instance = 2e4;
  const auto data = GenerateTraffic(params);
  const auto s1 = StreamingPpsSketch::Build(data.InstanceItems(0), 50.0, 11);
  const auto s2 = StreamingPpsSketch::Build(data.InstanceItems(1), 50.0, 22);
  auto even = [](uint64_t k) { return k % 2 == 0; };
  auto odd = [](uint64_t k) { return k % 2 == 1; };
  const auto all = EstimateMaxDominance(s1, s2);
  const auto evens = EstimateMaxDominance(s1, s2, even);
  const auto odds = EstimateMaxDominance(s1, s2, odd);
  EXPECT_NEAR(all.l, evens.l + odds.l, 1e-6 * all.l);
  EXPECT_NEAR(all.ht, evens.ht + odds.ht, 1e-6 * std::max(1.0, all.ht));
}

}  // namespace
}  // namespace pie
