// Distinct count over r >= 2 independently sampled instances with known
// seeds: the general-r version of Section 8.1, powered by the Theorem 4.2
// prefix sums (OR^(L) estimate A_{r-z} for an outcome with at least one
// sampled membership and z seed-certified absences).
//
// Requires a uniform sampling probability across instances (the paper's
// general-p coefficients grow exponentially in the number of distinct
// probabilities; Theorem 4.2's O(r^2) recursion needs uniform p).
//
// Templated on the key predicate like the dominance scans (default: all
// keys).

#pragma once

#include <cmath>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "aggregate/distinct.h"
#include "aggregate/dominance.h"
#include "engine/engine.h"
#include "util/check.h"

namespace pie {

/// Per-key estimates of |union of r key sets| from their sketches.
/// All sketches must share the same p; keys are classified per instance as
/// member (sampled), certified-absent (seed below p but not sampled), or
/// unknown.
struct DistinctMultiEstimates {
  double ht = 0.0;  ///< positive only for keys with full information
  double l = 0.0;   ///< exploits partial information (A_{r-z} weights)
};

namespace distinct_multi_internal {

// Appends the representative binary outcome row with one sampled 1,
// `zeros` sampled 0s (seed-certified absences), and the rest unsampled. By
// symmetry the OR^(L) estimate of any outcome with at least one sampled 1
// depends only on the number of sampled 0s (the prefix sum A_{r-z}), so
// one row per z covers every key in that class.
void AppendRepresentativeRow(int r, double p, int ones, int zeros,
                             OutcomeBatch* batch);

}  // namespace distinct_multi_internal

template <typename Pred = AllKeys>
DistinctMultiEstimates EstimateDistinctMulti(
    const std::vector<BinaryInstanceSketch>& sketches,
    const Pred& pred = {}) {
  const int r = static_cast<int>(sketches.size());
  PIE_CHECK(r >= 2);
  const double p = sketches[0].p;
  for (const auto& s : sketches) {
    PIE_CHECK(std::fabs(s.p - p) < 1e-12 &&
              "multi-instance distinct count requires uniform p");
  }
  auto& engine = EstimationEngine::Global();
  const SamplingParams params(std::vector<double>(static_cast<size_t>(r), p));
  auto or_l = engine.Kernel(
      {Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL},
      params);
  auto or_ht = engine.Kernel(
      {Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kHt},
      params);
  PIE_CHECK_OK(or_l.status());
  PIE_CHECK_OK(or_ht.status());

  // Per-class weights from one columnar batch of representative rows (row
  // z has z sampled zeros), evaluated with a single EstimateMany pass per
  // kernel; the engine's memoized kernel amortizes the Theorem 4.2
  // prefix-sum table. The HT weight is the all-sampled row z = r - 1.
  OutcomeBatch reps;
  reps.Reset(Scheme::kOblivious, r);
  for (int z = 0; z < r; ++z) {
    distinct_multi_internal::AppendRepresentativeRow(r, p, 1, z, &reps);
  }
  std::vector<double> l_weight;
  EstimateBatch(**or_l, reps, &l_weight);
  std::vector<double> ht_weights;
  EstimateBatch(**or_ht, reps, &ht_weights);
  const double ht_weight = ht_weights[static_cast<size_t>(r - 1)];

  // Membership map: key -> bitmask of sketches containing it.
  std::unordered_map<uint64_t, uint32_t> members;
  for (int i = 0; i < r; ++i) {
    for (uint64_t key : sketches[static_cast<size_t>(i)].keys) {
      if (!pred(key)) continue;
      members[key] |= (1u << i);
    }
  }

  DistinctMultiEstimates out;
  for (const auto& [key, mask] : members) {
    int ones = 0;
    int zeros = 0;
    for (int i = 0; i < r; ++i) {
      if ((mask >> i) & 1u) {
        ++ones;
      } else if (sketches[static_cast<size_t>(i)].seed_fn()(key) < p) {
        ++zeros;  // certified absent from instance i
      }
    }
    out.l += l_weight[static_cast<size_t>(zeros)];
    if (ones + zeros == r) out.ht += ht_weight;
  }
  return out;
}

/// Analytic variances given the containment profile: counts[m-1] = number
/// of union keys that belong to exactly m of the r instances.
double DistinctMultiLVariance(const std::vector<int64_t>& counts, int r,
                              double p);
double DistinctMultiHtVariance(int64_t union_size, int r, double p);

}  // namespace pie
