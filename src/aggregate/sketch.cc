#include "aggregate/sketch.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "sampling/rank.h"

namespace pie {

Result<double> FindPpsTauForExpectedSize(
    const std::vector<WeightedItem>& items, double target) {
  double positive = 0.0;
  double max_weight = 0.0;
  double min_weight = Infinity();
  for (const auto& item : items) {
    if (item.weight > 0) {
      positive += 1.0;
      max_weight = std::max(max_weight, item.weight);
      min_weight = std::min(min_weight, item.weight);
    }
  }
  if (!(target > 0.0) || target > positive) {
    return Status::InvalidArgument(
        "target expected size must lie in (0, #positive items]");
  }
  auto expected_size = [&](double tau) {
    double s = 0.0;
    for (const auto& item : items) {
      if (item.weight > 0) s += std::fmin(1.0, item.weight / tau);
    }
    return s;
  };
  // Expected size is nonincreasing in tau; bracket then bisect. At
  // tau <= min weight every key is sampled with probability 1, so
  // [min_weight, max_weight] brackets every target up to #positive --
  // including target == #positive exactly (returned without bisection).
  double lo = max_weight;
  if (expected_size(lo) < target) lo = min_weight;
  if (expected_size(lo) == target) return lo;
  double hi = max_weight;
  while (expected_size(hi) > target) hi *= 2.0;
  // The bracket halves each step, so ~60 steps reach the last representable
  // double; terminate on one-ulp-tight relative width.
  constexpr double kRelTol = 4 * std::numeric_limits<double>::epsilon();
  for (int iter = 0; iter < 200 && hi - lo > kRelTol * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (expected_size(mid) > target) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace pie
