#include "aggregate/dominance.h"

#include <cmath>
#include <map>

#include "util/check.h"

namespace pie {

double EstimateL1Distance(const StreamingPpsSketch& s1,
                          const StreamingPpsSketch& s2) {
  return EstimateMaxDominance(s1, s2).l - EstimateMinDominanceHt(s1, s2);
}

MaxDominanceVariance AnalyticMaxDominanceVariance(
    const MultiInstanceData& data, double tau1, double tau2,
    double quad_tol) {
  PIE_CHECK(data.num_instances() == 2);
  auto& engine = EstimationEngine::Global();
  const SamplingParams params({tau1, tau2}, quad_tol);
  const KernelSpec ht_spec{Function::kMax, Scheme::kPps,
                           Regime::kKnownSeeds, Family::kHt};
  const KernelSpec l_spec{Function::kMax, Scheme::kPps, Regime::kKnownSeeds,
                          Family::kL};
  auto ht = engine.Kernel(ht_spec, params);
  auto l = engine.Kernel(l_spec, params);
  PIE_CHECK_OK(ht.status());
  PIE_CHECK_OK(l.status());
  // Integer-valued workloads (flow counts) repeat value pairs heavily, and
  // the per-key L variance requires quadrature: memoize per distinct pair.
  std::map<std::pair<double, double>, double> l_cache;
  MaxDominanceVariance out;
  for (uint64_t key : data.Keys()) {
    const std::vector<double> v = data.Values(key);
    out.sum_max += std::fmax(v[0], v[1]);
    out.ht += (*ht)->Variance(v).value();
    const auto cache_key = std::make_pair(v[0], v[1]);
    auto it = l_cache.find(cache_key);
    if (it == l_cache.end()) {
      it = l_cache.emplace(cache_key, (*l)->Variance(v).value()).first;
    }
    out.l += it->second;
  }
  return out;
}

}  // namespace pie
