#include "core/min_weighted.h"

#include <cmath>

#include "core/functions.h"
#include "util/check.h"

namespace pie {

MinHtWeighted::MinHtWeighted(std::vector<double> tau) : tau_(std::move(tau)) {
  for (double t : tau_) PIE_CHECK(t > 0 && std::isfinite(t));
}

double MinHtWeighted::Estimate(const PpsOutcome& outcome) const {
  PIE_CHECK(outcome.r() == static_cast<int>(tau_.size()));
  return EstimateRow(outcome.sampled.data(), outcome.value.data());
}

bool MinHtWeighted::AllSampledMin(const uint8_t* sampled, const double* value,
                                  double* min_out, double* prob_out) const {
  const int r = static_cast<int>(tau_.size());
  double mn = 0.0;
  double prob = 1.0;
  for (int i = 0; i < r; ++i) {
    if (!sampled[i]) return false;
    const double v = value[i];
    mn = i == 0 ? v : std::fmin(mn, v);
    prob *= std::fmin(1.0, v / tau_[static_cast<size_t>(i)]);
  }
  *min_out = mn;
  *prob_out = prob;
  return true;
}

double MinHtWeighted::EstimateRow(const uint8_t* sampled,
                                  const double* value) const {
  double mn, prob;
  if (!AllSampledMin(sampled, value, &mn, &prob)) return 0.0;
  return mn / prob;
}

double MinHtWeighted::SecondMomentRow(const uint8_t* sampled,
                                      const double* value) const {
  double mn, prob;
  if (!AllSampledMin(sampled, value, &mn, &prob)) return 0.0;
  return mn * mn / prob;
}

double MinHtWeighted::MaxMinProductRow(const uint8_t* sampled,
                                       const double* value) const {
  double mn, prob;
  if (!AllSampledMin(sampled, value, &mn, &prob)) return 0.0;
  const int r = static_cast<int>(tau_.size());
  double mx = value[0];
  for (int i = 1; i < r; ++i) mx = std::fmax(mx, value[i]);
  return mx * mn / prob;
}

double MinHtWeighted::PositiveProb(const std::vector<double>& values) const {
  PIE_CHECK(values.size() == tau_.size());
  double prob = 1.0;
  for (size_t i = 0; i < values.size(); ++i) {
    prob *= std::fmin(1.0, values[i] / tau_[i]);  // 0 when values[i] == 0
  }
  return prob;
}

double MinHtWeighted::Variance(const std::vector<double>& values) const {
  const double mn = MinOf(values);
  if (mn <= 0) return 0.0;
  const double p = PositiveProb(values);
  return mn * mn * (1.0 / p - 1.0);
}

}  // namespace pie
