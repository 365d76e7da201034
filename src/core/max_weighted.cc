#include "core/max_weighted.h"

#include <algorithm>
#include <cmath>

#include "util/check.h"
#include "util/quadrature.h"

namespace pie {
namespace {

// Lower integration cut for seed integrals: the integrand grows like
// log(1/u)^2 near u = 0, so the truncated mass is O(eps * log^2 eps).
constexpr double kSeedEpsilon = 1e-13;

}  // namespace

MaxLWeightedTwo::MaxLWeightedTwo(double tau1, double tau2, double quad_tol)
    : tau1_(tau1), tau2_(tau2), quad_tol_(quad_tol) {
  PIE_CHECK(tau1 > 0 && std::isfinite(tau1));
  PIE_CHECK(tau2 > 0 && std::isfinite(tau2));
  PIE_CHECK(quad_tol > 0);
}

std::array<double, 2> MaxLWeightedTwo::DeterminingVector(
    const PpsOutcome& outcome) const {
  PIE_CHECK(outcome.r() == 2);
  const bool s1 = outcome.sampled[0];
  const bool s2 = outcome.sampled[1];
  if (!s1 && !s2) return {0.0, 0.0};
  if (s1 && s2) return {outcome.value[0], outcome.value[1]};
  if (s1) {
    const double v1 = outcome.value[0];
    return {v1, std::min(outcome.UpperBound(1), v1)};
  }
  const double v2 = outcome.value[1];
  return {std::min(outcome.UpperBound(0), v2), v2};
}

double MaxLWeightedTwo::EvalSorted(double hi, double lo, double tau_hi,
                                   double tau_lo) {
  PIE_DCHECK(hi >= lo);
  if (hi <= 0) return 0.0;
  if (lo >= tau_lo) {
    // Equation (26): the low entry is sampled with certainty.
    return lo + (hi - lo) / std::fmin(1.0, hi / tau_hi);
  }
  if (hi >= tau_hi) {
    // The high entry is sampled with certainty; Appendix A shows the
    // constant solution max^(L) = hi.
    return hi;
  }
  const double b = tau_hi + tau_lo;
  if (hi <= tau_lo) {
    // Equation (29): hi <= min(tau_hi, tau_lo). Requires lo > 0; lo = 0
    // has probability zero (determining vectors of nonempty outcomes are
    // positive) and yields +infinity.
    return tau_hi * tau_lo / (b - hi) +
           tau_hi * tau_lo * (tau_hi - hi) / (hi * b) *
               std::log((b - lo) * hi / (lo * (b - hi))) +
           (hi - lo) * tau_hi * tau_lo * (tau_hi - hi) /
               (hi * (b - lo) * (b - hi));
  }
  // Equation (30): lo <= tau_lo <= hi <= tau_hi. The log argument printed
  // in the paper, (b-hi+Delta)tau_hi / (tau_lo (b-hi)), does not satisfy the
  // paper's own boundary conditions (it breaks continuity with equations
  // (26) and (29) and unbiasedness); re-deriving the definite integral
  // int_{hi-tau_lo}^{Delta} dx / ((b-hi+x)^2 (hi-x)) with the substitution
  // in the paper's own footnote gives (b-lo) tau_lo / (lo tau_hi), which
  // restores both. See DESIGN.md (errata).
  return tau_hi + tau_lo - tau_hi * tau_lo / hi +
         tau_hi * tau_lo * (tau_hi - hi) / (hi * b) *
             std::log((b - lo) * tau_lo / (lo * tau_hi)) +
         tau_lo * (tau_hi - hi) * (tau_lo - lo) / ((b - lo) * hi);
}

double MaxLWeightedTwo::EstimateFromDeterminingVector(double v1,
                                                      double v2) const {
  if (v1 >= v2) return EvalSorted(v1, v2, tau1_, tau2_);
  return EvalSorted(v2, v1, tau2_, tau1_);
}

double MaxLWeightedTwo::Estimate(const PpsOutcome& outcome) const {
  PIE_CHECK(outcome.r() == 2);
  return EstimateRow(outcome.tau.data(), outcome.seed.data(),
                     outcome.sampled.data(), outcome.value.data());
}

double MaxLWeightedTwo::EstimateRow(const double* tau, const double* seed,
                                    const uint8_t* sampled,
                                    const double* value) const {
  const bool s1 = sampled[0] != 0;
  const bool s2 = sampled[1] != 0;
  double d1 = 0.0;
  double d2 = 0.0;
  if (s1 && s2) {
    d1 = value[0];
    d2 = value[1];
  } else if (s1) {
    d1 = value[0];
    d2 = std::min(seed[1] * tau[1], d1);
  } else if (s2) {
    d2 = value[1];
    d1 = std::min(seed[0] * tau[0], d2);
  }
  return EstimateFromDeterminingVector(d1, d2);
}

double MaxLWeightedTwo::Moment(double v1, double v2, bool squared) const {
  const double rho1 = v1 > 0 ? std::fmin(1.0, v1 / tau1_) : 0.0;
  const double rho2 = v2 > 0 ? std::fmin(1.0, v2 / tau2_) : 0.0;
  auto g = [squared](double x) { return squared ? x * x : x; };
  // Scale the absolute quadrature tolerance to the moment's magnitude
  // (E[est] ~ max(v); E[est^2] ~ max(v) * tau), so accuracy is relative and
  // small-value keys do not trigger needlessly deep refinement.
  const double mx = std::fmax(std::fmax(v1, v2), 1e-30);
  const double tol =
      quad_tol_ * (squared ? mx * std::fmax(tau1_, tau2_) : mx);

  double total = 0.0;

  // S = {1,2}: both sampled, determining vector is the data itself.
  if (rho1 > 0 && rho2 > 0) {
    total += rho1 * rho2 * g(EstimateFromDeterminingVector(v1, v2));
  }

  // S = {1}: u2 in (rho2, 1), determining vector (v1, min(u2*tau2, v1)).
  if (rho1 > 0 && rho2 < 1) {
    auto f = [&](double u2) {
      return g(EstimateFromDeterminingVector(v1, std::min(u2 * tau2_, v1)));
    };
    const double lo = std::max(rho2, kSeedEpsilon);
    const double cap = v1 / tau2_;  // beyond this, the bound clips at v1
    double integral = 0.0;
    if (cap > lo && cap < 1.0) {
      integral = AdaptiveSimpson(f, lo, cap, tol) +
                 AdaptiveSimpson(f, cap, 1.0, tol);
    } else {
      integral = AdaptiveSimpson(f, lo, 1.0, tol);
    }
    total += rho1 * integral;
  }

  // S = {2}: u1 in (rho1, 1), determining vector (min(u1*tau1, v2), v2).
  if (rho2 > 0 && rho1 < 1) {
    auto f = [&](double u1) {
      return g(EstimateFromDeterminingVector(std::min(u1 * tau1_, v2), v2));
    };
    const double lo = std::max(rho1, kSeedEpsilon);
    const double cap = v2 / tau1_;
    double integral = 0.0;
    if (cap > lo && cap < 1.0) {
      integral = AdaptiveSimpson(f, lo, cap, tol) +
                 AdaptiveSimpson(f, cap, 1.0, tol);
    } else {
      integral = AdaptiveSimpson(f, lo, 1.0, tol);
    }
    total += rho2 * integral;
  }

  // S = {} contributes 0.
  return total;
}

double MaxLWeightedTwo::Mean(double v1, double v2) const {
  return Moment(v1, v2, /*squared=*/false);
}

double MaxLWeightedTwo::Variance(double v1, double v2) const {
  const double mean = Moment(v1, v2, /*squared=*/false);
  const double second = Moment(v1, v2, /*squared=*/true);
  return std::max(0.0, second - mean * mean);
}

}  // namespace pie
