#include "accuracy/confidence.h"

#include <cmath>
#include <limits>

#include "util/check.h"

namespace pie {

double NormalQuantile(double p) {
  PIE_CHECK(p > 0.0 && p < 1.0);
  // Acklam's inverse normal CDF approximation: a rational central form on
  // [0.02425, 0.97575] and rational tail forms in sqrt(-2 log p) outside.
  static constexpr double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                                 -2.759285104469687e+02, 1.383577518672690e+02,
                                 -3.066479806614716e+01, 2.506628277459239e+00};
  static constexpr double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                                 -1.556989798598866e+02, 6.680131188771972e+01,
                                 -1.328068155288572e+01};
  static constexpr double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                                 -2.400758277161838e+00, -2.549732539343734e+00,
                                 4.374664141464968e+00,  2.938163982698783e+00};
  static constexpr double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                                 2.445134137142996e+00, 3.754408661907416e+00};
  static constexpr double kLow = 0.02425;
  if (p < kLow) {
    const double q = std::sqrt(-2.0 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  if (p > 1.0 - kLow) {
    const double q = std::sqrt(-2.0 * std::log(1.0 - p));
    return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
             c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0);
  }
  const double q = p - 0.5;
  const double r = q * q;
  return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
          a[5]) *
         q /
         (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0);
}

double CriticalValueUncached(const CiPolicy& policy) {
  PIE_CHECK(policy.level > 0.0 && policy.level < 1.0);
  switch (policy.method) {
    case CiMethod::kNormal:
      return NormalQuantile(0.5 * (1.0 + policy.level));
    case CiMethod::kChebyshev:
      return 1.0 / std::sqrt(1.0 - policy.level);
  }
  PIE_CHECK(false && "unreachable");
  return 0.0;
}

double CriticalValue(const CiPolicy& policy) {
  // Interval assembly runs once per aggregate result, but a multi-level
  // readout (QueryService dual intervals, accuracy sweeps) re-derives the
  // same handful of (method, level) pairs over and over; the Acklam tails
  // cost a log+sqrt each. Small thread-local memo, round-robin eviction;
  // keys compare exactly, so a hit returns the identical bits the direct
  // computation would (tests/accuracy_test.cc pins this).
  struct Entry {
    int method = 0;  // static_cast<int>(method) + 1; 0 = empty slot
    double level = 0.0;
    double value = 0.0;
  };
  constexpr int kSlots = 8;
  thread_local Entry memo[kSlots];
  thread_local int next_victim = 0;
  const int method_key = static_cast<int>(policy.method) + 1;
  for (const Entry& e : memo) {
    if (e.method == method_key && e.level == policy.level) return e.value;
  }
  const double value = CriticalValueUncached(policy);
  memo[next_victim] = {method_key, policy.level, value};
  next_victim = (next_victim + 1) % kSlots;
  return value;
}

IntervalEstimate MakeInterval(double estimate, double variance,
                              const CiPolicy& policy) {
  IntervalEstimate out;
  out.estimate = estimate;
  out.variance = variance;
  if (!std::isfinite(variance)) {
    // An overflowed or NaN variance (a stored weight above ~1e154 squares
    // to inf) leaves the error unknown: the interval is the whole line,
    // never the zero-width one fmax(0, NaN) = 0 would claim.
    out.std_err = std::numeric_limits<double>::infinity();
    out.lo = -out.std_err;
    out.hi = out.std_err;
    return out;
  }
  out.std_err = std::sqrt(std::fmax(0.0, variance));
  const double half = CriticalValue(policy) * out.std_err;
  out.lo = estimate - half;
  out.hi = estimate + half;
  return out;
}

}  // namespace pie
