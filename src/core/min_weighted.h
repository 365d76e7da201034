// Inverse-probability estimators for min(v) under weighted PPS sampling
// (Section 6 notes min is the one quantile estimable even with UNKNOWN
// seeds: the all-sampled outcome reveals min(v), and its probability
// prod_i min(1, v_i/tau_i) is computable from the sampled values alone).
//
// The estimator is Pareto optimal among unbiased nonnegative estimators:
// any outcome with a missing entry is consistent with a data vector whose
// min is 0, forcing the estimate 0 there (the argument of Section 2.2).

#pragma once

#include <vector>

#include "sampling/poisson.h"

namespace pie {

/// min^(HT) over r independently PPS-sampled instances. Unknown seeds
/// suffice; the estimate never reads the seed vector.
class MinHtWeighted {
 public:
  explicit MinHtWeighted(std::vector<double> tau);

  /// min over sampled values divided by the all-sampled probability when
  /// every entry is present; 0 otherwise.
  double Estimate(const PpsOutcome& outcome) const;

  /// Row variant over length-r arrays; shared by the scalar and batched
  /// paths (never reads seeds, matching the unknown-seeds regime).
  double EstimateRow(const uint8_t* sampled, const double* value) const;

  /// Unbiased estimate of min(v)^2: min^2 / p on the all-sampled event
  /// (where min(v) is known and p = prod_i min(1, v_i/tau_i) is computable
  /// from the sampled values alone), 0 otherwise. Feeds the accuracy
  /// layer's per-key variance estimates (src/accuracy/).
  double SecondMomentRow(const uint8_t* sampled, const double* value) const;

  /// Unbiased estimate of max(v) * min(v): on the all-sampled event the
  /// whole vector is known, so max * min / p (with p the all-sampled
  /// probability, computable from the sampled values alone) is unbiased;
  /// 0 otherwise. This is the cross moment behind covariance-aware error
  /// bars for differences of max- and min-based aggregates that share one
  /// sample (QueryService::L1Distance): with X the max estimator and Y
  /// this kernel's min estimator over the same outcome,
  ///   Cov-hat = X(o) Y(o) - MaxMinProductRow(o)
  /// is an unbiased per-key estimate of Cov[X, Y].
  double MaxMinProductRow(const uint8_t* sampled, const double* value) const;

  /// P[all entries sampled | values] = prod_i min(1, v_i/tau_i).
  double PositiveProb(const std::vector<double>& values) const;

  /// Exact variance: min(v)^2 (1/p - 1); 0 when some value is 0 (min is
  /// then 0 and the estimator is constant 0).
  double Variance(const std::vector<double>& values) const;

  const std::vector<double>& tau() const { return tau_; }

 private:
  /// Shared core of Estimate/SecondMomentRow: true iff every entry is
  /// sampled, returning min(v) and the all-sampled probability. One copy
  /// keeps the estimate/second-moment pair in sync.
  bool AllSampledMin(const uint8_t* sampled, const double* value,
                     double* min_out, double* prob_out) const;

  std::vector<double> tau_;
};

}  // namespace pie
