// Dominance norms and L1 distance over two independently sampled weighted
// instances with known seeds (Section 8.2): sum aggregates of per-key max /
// min across two PPS sketches.
//
// Each scan builds its rows once through the store layer's row builder
// (store/pps_rows.h, shared with QueryService) and drives every kernel's
// EstimateMany once over the slabs. The scans are templated on the key
// predicate (default: all keys, which compiles away), so hot callers
// passing lambdas pay no indirection per key.

#pragma once

#include <cstdint>

#include "aggregate/dataset.h"
#include "engine/engine.h"
#include "store/pps_rows.h"
#include "store/streaming_sketch.h"
#include "util/check.h"

namespace pie {

/// Estimates of the max-dominance norm sum_h max(v1(h), v2(h)).
struct MaxDominanceEstimates {
  double ht = 0.0;
  double l = 0.0;
};

/// Applies the per-key weighted max estimators (max^(HT) and max^(L),
/// Section 5.2) to every key sampled in either sketch (selected by `pred`)
/// and sums.
template <typename Pred = AllKeys>
MaxDominanceEstimates EstimateMaxDominance(const StreamingPpsSketch& s1,
                                           const StreamingPpsSketch& s2,
                                           const Pred& pred = {}) {
  auto& engine = EstimationEngine::Global();
  const SamplingParams params({s1.tau(), s2.tau()});
  auto ht = engine.Kernel(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kHt},
      params);
  auto l = engine.Kernel(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
      params);
  PIE_CHECK_OK(ht.status());
  PIE_CHECK_OK(l.status());

  OutcomeBatch batch;
  BuildPairUnion(PpsSource::Of(s1), PpsSource::Of(s2), &batch, pred);
  MaxDominanceEstimates out;
  out.ht = EstimateSum(**ht, batch);
  out.l = EstimateSum(**l, batch);
  return out;
}

/// HT estimate of the min-dominance norm sum_h min(v1(h), v2(h)): a key
/// contributes min(v1,v2) / (rho1 rho2) when sampled in both sketches
/// (the inverse-probability estimator, Pareto optimal for min).
template <typename Pred = AllKeys>
double EstimateMinDominanceHt(const StreamingPpsSketch& s1,
                              const StreamingPpsSketch& s2,
                              const Pred& pred = {}) {
  auto min_ht = EstimationEngine::Global().Kernel(
      {Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt},
      SamplingParams({s1.tau(), s2.tau()}));
  PIE_CHECK_OK(min_ht.status());

  OutcomeBatch batch;
  BuildPairIntersection(PpsSource::Of(s1), PpsSource::Of(s2), &batch, pred);
  return EstimateSum(**min_ht, batch);
}

/// Unbiased L1 distance estimate sum_h |v1(h) - v2(h)| as the difference of
/// the max-dominance (L) and min-dominance (HT) estimates. Unbiased but not
/// per-key nonnegative (Section 2.3 shows no nonnegative per-key RG
/// estimator recovers exact values under weighted sampling).
double EstimateL1Distance(const StreamingPpsSketch& s1,
                          const StreamingPpsSketch& s2);

/// Exact (analytic) variances of the max-dominance estimators on a two-
/// instance data set: per-key variance formulas summed over keys
/// (independent seeds make per-key estimates independent). Used by the
/// Figure 7 reproduction.
struct MaxDominanceVariance {
  double ht = 0.0;
  double l = 0.0;
  double sum_max = 0.0;  ///< true max-dominance norm
};

MaxDominanceVariance AnalyticMaxDominanceVariance(const MultiInstanceData& data,
                                                  double tau1, double tau2,
                                                  double quad_tol = 1e-10);

}  // namespace pie
