#include "core/ht.h"

#include <algorithm>
#include <cmath>

#include "core/functions.h"
#include "util/check.h"

namespace pie {
namespace {

// Shared core of the all-sampled HT row forms: true iff every entry is
// sampled, filling f(v) (via scratch) and the all-sampled probability.
bool ObliviousHtAllSampled(const double* p, const uint8_t* sampled,
                           const double* value, int r,
                           const VectorFunction& f,
                           std::vector<double>* scratch, double* fv_out,
                           double* prob_out) {
  for (int i = 0; i < r; ++i) {
    if (!sampled[i]) return false;
  }
  double prob = 1.0;
  for (int i = 0; i < r; ++i) prob *= p[i];
  PIE_DCHECK(prob > 0);
  scratch->assign(value, value + r);
  *fv_out = f(*scratch);
  *prob_out = prob;
  return true;
}

}  // namespace

double ObliviousHtEstimate(const ObliviousOutcome& outcome,
                           const VectorFunction& f) {
  if (!outcome.AllSampled()) return 0.0;
  double prob = 1.0;
  for (double pi : outcome.p) prob *= pi;
  PIE_DCHECK(prob > 0);
  return f(outcome.value) / prob;
}

double ObliviousHtSecondMomentRow(const double* p, const uint8_t* sampled,
                                  const double* value, int r,
                                  const VectorFunction& f,
                                  std::vector<double>* scratch) {
  double fv, prob;
  if (!ObliviousHtAllSampled(p, sampled, value, r, f, scratch, &fv, &prob)) {
    return 0.0;
  }
  return fv * fv / prob;
}

void ObliviousHtEstimateWithSecondMomentRow(const double* p,
                                            const uint8_t* sampled,
                                            const double* value, int r,
                                            const VectorFunction& f,
                                            std::vector<double>* scratch,
                                            double* est_out,
                                            double* second_out) {
  double fv, prob;
  if (!ObliviousHtAllSampled(p, sampled, value, r, f, scratch, &fv, &prob)) {
    *est_out = 0.0;
    *second_out = 0.0;
    return;
  }
  *est_out = fv / prob;
  *second_out = fv * fv / prob;
}

double ObliviousHtVariance(const std::vector<double>& values,
                           const std::vector<double>& p,
                           const VectorFunction& f) {
  double prob = 1.0;
  for (double pi : p) prob *= pi;
  PIE_DCHECK(prob > 0);
  const double fv = f(values);
  return fv * fv * (1.0 / prob - 1.0);
}

MaxHtWeighted::MaxHtWeighted(std::vector<double> tau) : tau_(std::move(tau)) {
  for (double t : tau_) PIE_CHECK(t > 0 && std::isfinite(t));
}

double MaxHtWeighted::Estimate(const PpsOutcome& outcome) const {
  PIE_CHECK(outcome.r() == static_cast<int>(tau_.size()));
  return EstimateRow(outcome.tau.data(), outcome.seed.data(),
                     outcome.sampled.data(), outcome.value.data());
}

bool MaxHtWeighted::IdentifiedMax(const double* tau, const double* seed,
                                  const uint8_t* sampled, const double* value,
                                  double* max_out, double* prob_out) const {
  const int r = static_cast<int>(tau_.size());
  double max_sampled = 0.0;
  for (int i = 0; i < r; ++i) {
    if (sampled[i]) max_sampled = std::max(max_sampled, value[i]);
  }
  if (max_sampled <= 0) return false;
  // The outcome identifies max(v) iff every unsampled entry is upper-bounded
  // by the largest sampled value (seed bound u_i * tau_i).
  for (int i = 0; i < r; ++i) {
    if (!sampled[i] && seed[i] * tau[i] > max_sampled) {
      return false;
    }
  }
  double prob = 1.0;
  for (double t : tau_) prob *= std::fmin(1.0, max_sampled / t);
  *max_out = max_sampled;
  *prob_out = prob;
  return true;
}

double MaxHtWeighted::EstimateRow(const double* tau, const double* seed,
                                  const uint8_t* sampled,
                                  const double* value) const {
  double mx, prob;
  if (!IdentifiedMax(tau, seed, sampled, value, &mx, &prob)) return 0.0;
  return mx / prob;
}

double MaxHtWeighted::SecondMomentRow(const double* tau, const double* seed,
                                      const uint8_t* sampled,
                                      const double* value) const {
  double mx, prob;
  if (!IdentifiedMax(tau, seed, sampled, value, &mx, &prob)) return 0.0;
  return mx * mx / prob;
}

void MaxHtWeighted::EstimateWithSecondMomentRow(const double* tau,
                                                const double* seed,
                                                const uint8_t* sampled,
                                                const double* value,
                                                double* est_out,
                                                double* second_out) const {
  double mx, prob;
  if (!IdentifiedMax(tau, seed, sampled, value, &mx, &prob)) {
    *est_out = 0.0;
    *second_out = 0.0;
    return;
  }
  *est_out = mx / prob;
  *second_out = mx * mx / prob;
}

double MaxHtWeighted::PositiveProb(const std::vector<double>& values) const {
  PIE_CHECK(values.size() == tau_.size());
  const double mx = MaxOf(values);
  if (mx <= 0) return 0.0;
  double prob = 1.0;
  for (double t : tau_) prob *= std::fmin(1.0, mx / t);
  return prob;
}

double MaxHtWeighted::Variance(const std::vector<double>& values) const {
  const double mx = MaxOf(values);
  if (mx <= 0) return 0.0;
  const double p = PositiveProb(values);
  return mx * mx * (1.0 / p - 1.0);
}

}  // namespace pie
