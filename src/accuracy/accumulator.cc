#include "accuracy/accumulator.h"

#include <algorithm>
#include <cmath>

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

double DifferenceAccumulator::conservative_variance() const {
  const double sd_x = std::sqrt(std::fmax(0.0, var_x_));
  const double sd_y = std::sqrt(std::fmax(0.0, var_y_));
  const double bound = sd_x + sd_y;
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
  return std::fmax(0.0,
                   std::fmin(joint_variance(), conservative_variance()));
}

}  // namespace pie
