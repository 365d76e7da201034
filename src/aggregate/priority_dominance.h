// Max-dominance estimation from bottom-k (priority) sketches with known
// seeds -- the fixed-size-sample variant the Figure 7 caption asserts gives
// "the same results" as Poisson PPS.
//
// Rank conditioning (Section 7.1) reduces each key's inclusion to a PPS
// threshold event conditioned on the other keys' ranks: with PPS ranks
// (rank = u/v), a sketched key was included iff u/v < t, i.e. iff
// v >= u / t, where t is the (k+1)-st smallest rank; an unsketched key
// carries the upper bound v < u / t' with t' the k-th smallest rank. Both
// are exactly the weighted-PPS known-seeds outcomes of Section 5, so the
// per-key max^(HT) / max^(L) estimators apply with per-key thresholds
// tau* = 1/t.

#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "aggregate/dominance.h"
#include "engine/engine.h"
#include "sampling/bottomk.h"
#include "store/streaming_sketch.h"
#include "util/check.h"
#include "util/hashing.h"

namespace pie {

/// A bottom-k sketch plus the salt that generated its seeds (needed to
/// recompute any key's seed at estimation time).
struct PrioritySketch {
  BottomKSketch sketch;
  uint64_t salt = 0;

  /// Conditional PPS threshold tau* for a key INSIDE the sketch:
  /// 1 / ((k+1)-st smallest rank). Clamped for exact sketches.
  double InclusionTau() const;
  /// Conditional PPS threshold for a key OUTSIDE the sketch (used for the
  /// seed upper bound): 1 / (k-th smallest rank).
  double ExclusionTau() const;
};

/// Builds the priority (PPS-rank bottom-k) sketch of one instance (a thin
/// wrapper feeding the one-pass StreamingBottomkSketch builder).
PrioritySketch BuildPrioritySketch(const std::vector<WeightedItem>& items,
                                   int k, uint64_t salt);

/// Adopts a one-pass bottom-k builder's state (must use PPS ranks).
PrioritySketch FromStreamingBottomk(const StreamingBottomkSketch& stream);

/// Max-dominance estimates (HT and L) over two priority sketches, applying
/// the Section 5 per-key estimators under rank conditioning. Conditionally
/// (hence unconditionally) unbiased. Templated on the key predicate like
/// the dominance scans.
///
/// Rank conditioning gives each key one of four (tau1, tau2) combinations
/// (inclusion vs exclusion threshold per sketch), so keys are binned into
/// one columnar batch per combination and each combination's memoized
/// kernels run one EstimateMany pass over their batch; the old code
/// rebuilt both weighted estimators for every key.
template <typename Pred = AllKeys>
MaxDominanceEstimates EstimateMaxDominancePriority(const PrioritySketch& s1,
                                                   const PrioritySketch& s2,
                                                   const Pred& pred = {}) {
  const SeedFunction seed1(s1.salt);
  const SeedFunction seed2(s2.salt);

  std::unordered_map<uint64_t, double> in1, in2;
  for (const auto& e : s1.sketch.entries) in1.emplace(e.key, e.weight);
  for (const auto& e : s2.sketch.entries) in2.emplace(e.key, e.weight);

  auto& engine = EstimationEngine::Global();
  const KernelSpec ht_spec{Function::kMax, Scheme::kPps, Regime::kKnownSeeds,
                           Family::kHt};
  const KernelSpec l_spec{Function::kMax, Scheme::kPps, Regime::kKnownSeeds,
                          Family::kL};
  const double tau1_of[2] = {s1.ExclusionTau(), s1.InclusionTau()};
  const double tau2_of[2] = {s2.ExclusionTau(), s2.InclusionTau()};
  struct KernelPair {
    KernelHandle ht, l;
  };
  KernelPair kernels[2][2];
  OutcomeBatch batches[2][2];
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      if (a == 0 && b == 0) continue;  // absent-from-both keys never scanned
      const SamplingParams params({tau1_of[a], tau2_of[b]});
      auto ht = engine.Kernel(ht_spec, params);
      auto l = engine.Kernel(l_spec, params);
      PIE_CHECK_OK(ht.status());
      PIE_CHECK_OK(l.status());
      kernels[a][b] = {*ht, *l};
      batches[a][b].Reset(Scheme::kPps, 2);
    }
  }

  auto process = [&](uint64_t key) {
    if (!pred(key)) return;
    auto it1 = in1.find(key);
    auto it2 = in2.find(key);
    const int present1 = it1 != in1.end() ? 1 : 0;
    const int present2 = it2 != in2.end() ? 1 : 0;
    OutcomeBatch& batch = batches[present1][present2];
    const int i = batch.AppendRow();
    double* tau = batch.param_row(i);
    tau[0] = tau1_of[present1];
    tau[1] = tau2_of[present2];
    double* seed = batch.seed_row(i);
    seed[0] = seed1(key);
    seed[1] = seed2(key);
    uint8_t* sampled = batch.sampled_row(i);
    double* value = batch.value_row(i);
    sampled[0] = sampled[1] = 0;
    value[0] = value[1] = 0.0;
    if (present1) {
      sampled[0] = 1;
      value[0] = it1->second;
    }
    if (present2) {
      sampled[1] = 1;
      value[1] = it2->second;
    }
  };

  for (const auto& [key, weight] : in1) process(key);
  for (const auto& [key, weight] : in2) {
    if (!in1.count(key)) process(key);
  }

  MaxDominanceEstimates out;
  for (int a = 0; a < 2; ++a) {
    for (int b = 0; b < 2; ++b) {
      if (a == 0 && b == 0) continue;
      out.ht += EstimateSum(*kernels[a][b].ht, batches[a][b]);
      out.l += EstimateSum(*kernels[a][b].l, batches[a][b]);
    }
  }
  return out;
}

}  // namespace pie
