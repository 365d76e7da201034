#include "accuracy/accumulator.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace pie {

void AccuracyAccumulator::AddBatchImpl(const EstimatorKernel& kernel,
                                       const OutcomeBatch& batch,
                                       bool with_variance, int num_threads) {
  // One fused pass per fixed-size chunk through the deterministic driver:
  // the point estimate and the per-key variance estimate come out of the
  // same slab loop (EstimateWithVarianceMany), and the chunk partials
  // tree-reduce in a fixed shape -- so sum() is bitwise identical to
  // EstimateSum(kernel, batch) and independent of num_threads.
  ScanOptions options;
  options.num_threads = num_threads;
  options.with_variance = with_variance;
  const ScanPartial partial = ScanBatch(kernel, batch.view(), options);
  sum_ += partial.sum;
  variance_ += partial.variance;
  per_key_.Merge(partial.per_key);
}

namespace {

/// sqrt(max(0, variance)), keeping NaN (fmax would turn it into 0).
double StdErr(double variance) {
  return std::isnan(variance) ? variance : std::sqrt(std::fmax(0.0, variance));
}

}  // namespace

double DifferenceAccumulator::conservative_variance() const {
  const double bound = StdErr(var_x_) + StdErr(var_y_);
  return bound * bound;
}

double DifferenceAccumulator::clamped_variance() const {
  // The joint estimate is sharper whenever the cross term is real (shared
  // samples make Cov[X, Y] > 0 for max/min pairs); the conservative bound
  // remains the ceiling, so the covariance-aware interval can only shrink
  // the error bars, never widen them. The floor handles unlucky samples
  // where the joint estimate (a difference of unbiased terms) goes
  // negative: the interval collapses to zero width, matching the header
  // contract that variance lands in [0, conservative_variance()].
  const double joint = joint_variance();
  const double bound = conservative_variance();
  if (!std::isfinite(joint) || !std::isfinite(bound)) {
    // An overflowed term leaves Var[X - Y] unknown; the clamps would turn
    // it into a zero-width interval. Serve it non-finite instead, so
    // MakeInterval widens the interval to the whole line.
    return std::isnan(joint) ? joint : std::numeric_limits<double>::infinity();
  }
  return std::fmax(0.0, std::fmin(joint, bound));
}

}  // namespace pie
