#include "aggregate/distinct_multi.h"

namespace pie {
namespace distinct_multi_internal {

void AppendRepresentativeRow(int r, double p, int ones, int zeros,
                             OutcomeBatch* batch) {
  PIE_CHECK(batch != nullptr);
  PIE_CHECK(ones + zeros <= r);
  const int row = batch->AppendRow();
  double* p_row = batch->param_row(row);
  uint8_t* sampled = batch->sampled_row(row);
  double* value = batch->value_row(row);
  for (int i = 0; i < r; ++i) {
    p_row[i] = p;
    sampled[i] = i < ones + zeros ? 1 : 0;
    value[i] = i < ones ? 1.0 : 0.0;
  }
}

}  // namespace distinct_multi_internal

double DistinctMultiLVariance(const std::vector<int64_t>& counts, int r,
                              double p) {
  PIE_CHECK(static_cast<int>(counts.size()) == r);
  auto or_l = EstimationEngine::Global().Kernel(
      {Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL},
      SamplingParams(std::vector<double>(static_cast<size_t>(r), p)));
  PIE_CHECK_OK(or_l.status());
  std::vector<double> values(static_cast<size_t>(r), 0.0);
  double var = 0.0;
  for (int m = 1; m <= r; ++m) {
    values[static_cast<size_t>(m - 1)] = 1.0;  // m leading ones
    var += static_cast<double>(counts[static_cast<size_t>(m - 1)]) *
           (*or_l)->Variance(values).value();
  }
  return var;
}

double DistinctMultiHtVariance(int64_t union_size, int r, double p) {
  return static_cast<double>(union_size) * (1.0 / std::pow(p, r) - 1.0);
}

}  // namespace pie
