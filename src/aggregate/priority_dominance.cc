#include "aggregate/priority_dominance.h"

#include <cmath>

namespace pie {
namespace {

// Threshold clamps: an exact sketch (infinite rank threshold) means every
// positive key is present with probability 1 (tau* -> 0); an empty rank
// pool means no information (tau* -> huge bound).
constexpr double kExactTau = 1e-12;
constexpr double kNoInfoTau = 1e18;

}  // namespace

double PrioritySketch::InclusionTau() const {
  if (std::isinf(sketch.threshold)) return kExactTau;
  return 1.0 / sketch.threshold;
}

double PrioritySketch::ExclusionTau() const {
  if (sketch.entries.empty()) return kNoInfoTau;
  const double kth = sketch.entries.back().rank;  // k-th smallest overall
  if (kth <= 0) return kNoInfoTau;
  return 1.0 / kth;
}

PrioritySketch BuildPrioritySketch(const std::vector<WeightedItem>& items,
                                   int k, uint64_t salt) {
  // Thin wrapper over the store layer's one-pass builder: the batch and
  // streaming paths produce byte-identical sketches by construction.
  StreamingBottomkSketch stream(k, RankFamily::kPps, salt);
  for (const auto& item : items) stream.Update(item.key, item.weight);
  return FromStreamingBottomk(stream);
}

PrioritySketch FromStreamingBottomk(const StreamingBottomkSketch& stream) {
  PIE_CHECK(stream.family() == RankFamily::kPps);
  PrioritySketch out;
  out.salt = stream.salt();
  out.sketch = stream.Finalize();
  return out;
}

}  // namespace pie
