// Horvitz-Thompson (inverse-probability) estimators (Section 2.2).
//
// Under "all or nothing" information the HT estimator is variance-optimal
// among unbiased nonnegative estimators. For multi-instance functions over
// weight-oblivious Poisson samples the natural HT estimator is positive only
// when *all* r entries are sampled; the paper shows it is Pareto optimal for
// min and for the two-instance range, but suboptimal for max and OR -- which
// is the gap the L/U estimators close.

#pragma once

#include <functional>
#include <vector>

#include "sampling/poisson.h"

namespace pie {

/// f applied to a complete data vector.
using VectorFunction = std::function<double(const std::vector<double>&)>;

/// HT estimate of f(v) from a weight-oblivious outcome: f(values)/prod(p)
/// when every entry is sampled, 0 otherwise.
double ObliviousHtEstimate(const ObliviousOutcome& outcome,
                           const VectorFunction& f);

/// Closed-form variance f(v)^2 (1/prod(p) - 1) of the all-sampled HT
/// estimator (equation (10) in the paper).
double ObliviousHtVariance(const std::vector<double>& values,
                           const std::vector<double>& p,
                           const VectorFunction& f);

/// Unbiased estimate of f(v)^2 from a weight-oblivious outcome:
/// f(values)^2 / prod(p) when every entry is sampled, 0 otherwise. On the
/// all-sampled event (probability prod(p)) f(v) is known exactly, so the
/// inverse-probability estimate of its square is unbiased for ANY f --
/// this is the second-moment kernel behind the accuracy layer's per-key
/// variance estimates (src/accuracy/).
double ObliviousHtSecondMomentRow(const double* p, const uint8_t* sampled,
                                  const double* value, int r,
                                  const VectorFunction& f,
                                  std::vector<double>* scratch);

/// Fused row form over length-r arrays (f is applied to `scratch`, refilled
/// from the row, so batched loops keep one buffer across keys): one
/// all-sampled check and one f(v) evaluation produce both the estimate
/// (fv/prob, the arithmetic of ObliviousHtEstimate) and the second moment
/// (fv^2/prob; the same shared core as ObliviousHtSecondMomentRow fills fv
/// and prob), for the batched block loops.
void ObliviousHtEstimateWithSecondMomentRow(const double* p,
                                            const uint8_t* sampled,
                                            const double* value, int r,
                                            const VectorFunction& f,
                                            std::vector<double>* scratch,
                                            double* est_out,
                                            double* second_out);

/// The optimal inverse-probability estimator for max under weighted PPS
/// sampling with known seeds (Section 5.2, from Cohen-Kaplan-Sen):
/// positive on outcomes where the maximum is identifiable, i.e. every
/// unsampled entry's seed upper bound u_i*tau_i is at most the largest
/// sampled value.
class MaxHtWeighted {
 public:
  /// Thresholds tau*_i > 0 of the per-instance PPS samplers.
  explicit MaxHtWeighted(std::vector<double> tau);

  /// Estimate from an outcome (requires known seeds).
  double Estimate(const PpsOutcome& outcome) const;

  /// Row variant over length-r arrays (tau is the row's threshold slab;
  /// the inclusion probability uses the construction-time thresholds, as
  /// in the scalar path). Shared by the scalar and batched paths.
  double EstimateRow(const double* tau, const double* seed,
                     const uint8_t* sampled, const double* value) const;

  /// Unbiased estimate of max(v)^2: max_sampled^2 / p on the identifiable
  /// event (every unsampled entry's seed bound below the largest sampled
  /// value, where max_sampled = max(v) and p = prod_i min(1, max/tau_i) is
  /// computable), 0 otherwise. Because the identifiable event does not
  /// depend on which estimator is being error-barred, this is the shared
  /// second-moment form for EVERY known-seeds weighted max kernel (HT and
  /// the order-optimal families alike): the accuracy layer only needs
  /// E[returned] = max(v)^2.
  double SecondMomentRow(const double* tau, const double* seed,
                         const uint8_t* sampled, const double* value) const;

  /// Fused EstimateRow + SecondMomentRow: one identifiability check fills
  /// both mx/p and mx^2/p. Bitwise identical to the two separate calls
  /// (the shared IdentifiedMax core produces the same mx and p) at half
  /// the work -- the single-pass estimate+variance slab loops drive this.
  void EstimateWithSecondMomentRow(const double* tau, const double* seed,
                                   const uint8_t* sampled,
                                   const double* value, double* est_out,
                                   double* second_out) const;

  /// Exact variance on a data vector: max^2 (1/p - 1) with
  /// p = prod_i min(1, max/tau_i); 0 for the all-zero vector.
  double Variance(const std::vector<double>& values) const;

  /// P[estimator is positive | values].
  double PositiveProb(const std::vector<double>& values) const;

  const std::vector<double>& tau() const { return tau_; }

 private:
  /// Shared core of Estimate/SecondMomentRow: true iff the outcome
  /// identifies max(v), returning the identified max and the event
  /// probability prod_i min(1, max/tau_i). One copy of the
  /// identifiability logic keeps the estimate/second-moment pair in sync.
  bool IdentifiedMax(const double* tau, const double* seed,
                     const uint8_t* sampled, const double* value,
                     double* max_out, double* prob_out) const;

  std::vector<double> tau_;
};

}  // namespace pie
