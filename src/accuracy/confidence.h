// Confidence-interval policies for the accuracy layer.
//
// The estimators this library serves are unbiased, and PR 4 makes their
// per-key variance estimable in the same columnar scan (see
// EstimatorKernel::EstimateSecondMoment). This header turns an (estimate,
// variance-estimate) pair into an interval: a normal (CLT) interval for the
// many-key sum aggregates the store answers, or a distribution-free
// Chebyshev fallback when the caller cannot appeal to the CLT (few keys,
// heavy-tailed per-key estimates). Every QueryService aggregate returns an
// IntervalEstimate instead of a bare double.

#pragma once

namespace pie {

/// How the interval half-width is derived from the standard error.
enum class CiMethod {
  kNormal,     ///< estimate +/- z_{(1+level)/2} * stderr (CLT)
  kChebyshev,  ///< estimate +/- stderr / sqrt(1 - level) (distribution-free)
};

/// Interval policy: method and nominal coverage level in (0, 1).
struct CiPolicy {
  CiMethod method = CiMethod::kNormal;
  double level = 0.95;
};

/// A point estimate with its estimated error: the accuracy layer's return
/// type for every sum aggregate.
struct IntervalEstimate {
  double estimate = 0.0;
  /// Variance estimate of `estimate`: unbiased for directly-scanned sum
  /// aggregates; a conservative UPPER BOUND for derived differences whose
  /// cross-covariance is unknown (QueryService::L1Distance documents its
  /// sd(X)+sd(Y) bound). May be slightly negative on unlucky samples (a
  /// difference of unbiased terms); the interval uses the clamped value.
  double variance = 0.0;
  /// sqrt(max(0, variance)); +inf, with lo = -inf and hi = +inf, when
  /// the variance is not finite.
  double std_err = 0.0;
  double lo = 0.0;  ///< estimate - critical * std_err
  double hi = 0.0;  ///< estimate + critical * std_err
  /// Fraction of store shards that backed this answer: 1.0 for a complete
  /// store; < 1 when a degraded-recovery snapshot answered by
  /// extrapolating around absent shards (QueryService widens the interval
  /// accordingly -- see store/query_service.h).
  double coverage = 1.0;
};

/// The paper's dual readout (classical baseline next to the
/// partial-information estimator), with error bars on both.
struct DualInterval {
  IntervalEstimate ht;
  IntervalEstimate l;
};

/// Quantile of the standard normal distribution (inverse CDF), p in (0, 1).
/// Acklam's rational approximation, relative error < 1.2e-9 -- orders of
/// magnitude below Monte Carlo noise at any feasible trial count.
double NormalQuantile(double p);

/// Multiplier applied to the standard error under `policy`:
/// NormalQuantile((1 + level) / 2) for kNormal, 1/sqrt(1 - level) for
/// kChebyshev (both checked for level in (0, 1)). Memoized per thread on
/// the recently-used (method, level) pairs; bitwise identical to
/// CriticalValueUncached on every input.
double CriticalValue(const CiPolicy& policy);

/// The direct computation behind CriticalValue, bypassing its memo (the
/// regression test compares the two bitwise).
double CriticalValueUncached(const CiPolicy& policy);

/// Assembles the interval for an (estimate, variance-estimate) pair.
IntervalEstimate MakeInterval(double estimate, double variance,
                              const CiPolicy& policy = {});

}  // namespace pie
