#include "aggregate/distinct.h"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <utility>

#include "accuracy/selector.h"
#include "engine/engine.h"
#include "store/sketch_store.h"
#include "util/check.h"

namespace pie {
namespace {

// The distinct-count estimators are the sum aggregate of per-key Boolean OR
// (Section 8.1): by symmetry a key's estimate depends only on its seed
// classification category, so the aggregate collapses to counts times the
// OR kernel's estimate on one representative outcome per category. The
// categories map to binary weight-oblivious outcomes (a certified absence
// IS a sampled 0 under the Section 5.1 equivalence):
//   F11 -> both sampled, values (1,1)     F1? -> only entry 1 sampled, (1,-)
//   F10 -> both sampled, values (1,0)     F?1 -> only entry 2 sampled, (-,1)
//   F01 -> both sampled, values (0,1)
struct CategoryWeights {
  double f11, f10, f01, f1q, fq1;
};

ObliviousOutcome CategoryOutcome(double p1, double p2, bool s1, double v1,
                                 bool s2, double v2) {
  ObliviousOutcome o;
  o.p = {p1, p2};
  o.sampled = {static_cast<uint8_t>(s1), static_cast<uint8_t>(s2)};
  o.value = {v1, v2};
  return o;
}

// Uses the registry's uncached Create: sample-size planning bisects over p,
// and caching hundreds of one-shot (p, p) kernels in the global engine
// would only bloat it (OR r=2 kernel construction is trivial).
Result<std::unique_ptr<EstimatorKernel>> OrKernel(Family family, double p1,
                                                  double p2) {
  return KernelRegistry::Global().Create(
      {Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, family},
      SamplingParams({p1, p2}));
}

// Shared memo machinery for the per-(family, p1, p2) weight tables below.
// Estimation loops and variance formulas are called with a fixed (p1, p2)
// per trial/key scan; a one-entry memo per family makes repeat calls pure
// arithmetic while keeping parameter sweeps (sample-size bisection)
// allocation-bounded. Fill computes the payload from the family's kernel.
template <typename Weights, typename Fill>
const Weights& MemoizedOrWeights(Family family, double p1, double p2,
                                 const Fill& fill) {
  struct Memo {
    bool valid = false;
    Family family = Family::kHt;
    double p1 = 0.0, p2 = 0.0;
    Weights weights{};
  };
  static thread_local Memo memo_by_family[2];
  Memo& memo = memo_by_family[family == Family::kHt ? 0 : 1];
  if (!(memo.valid && memo.family == family && memo.p1 == p1 &&
        memo.p2 == p2)) {
    auto kernel = OrKernel(family, p1, p2);
    PIE_CHECK_OK(kernel.status());
    memo.weights = fill(**kernel);
    memo.family = family;
    memo.p1 = p1;
    memo.p2 = p2;
    memo.valid = true;
  }
  return memo.weights;
}

CategoryWeights DistinctWeights(Family family, double p1, double p2) {
  return MemoizedOrWeights<CategoryWeights>(
      family, p1, p2, [&](const EstimatorKernel& k) {
        auto weight = [&k](ObliviousOutcome o) {
          return k.Estimate(Outcome::FromOblivious(std::move(o)));
        };
        return CategoryWeights{
            weight(CategoryOutcome(p1, p2, true, 1, true, 1)),
            weight(CategoryOutcome(p1, p2, true, 1, true, 0)),
            weight(CategoryOutcome(p1, p2, true, 0, true, 1)),
            weight(CategoryOutcome(p1, p2, true, 1, false, 0)),
            weight(CategoryOutcome(p1, p2, false, 0, true, 1))};
      });
}

}  // namespace

BinaryInstanceSketch SampleBinaryInstance(const std::vector<uint64_t>& keys,
                                          double p, uint64_t salt) {
  PIE_CHECK(p > 0 && p <= 1);
  BinaryInstanceSketch sketch;
  sketch.p = p;
  sketch.salt = salt;
  const SeedFunction seed(salt);
  for (uint64_t key : keys) {
    if (seed(key) < p) sketch.keys.push_back(key);
  }
  return sketch;
}

BinaryInstanceSketch BinaryInstanceFromStore(const StoreSnapshot& snapshot,
                                             int instance) {
  const double tau = snapshot.TauFor(instance);
  BinaryInstanceSketch sketch;
  sketch.p = std::fmin(1.0, 1.0 / tau);
  sketch.salt = snapshot.InstanceSalt(instance);
  const StreamingPpsSketch merged = snapshot.MergedInstance(instance);
  for (const auto& e : merged.EntriesByKey()) {
    PIE_CHECK(e.weight == 1.0);  // set semantics: unit-weight records only
    sketch.keys.push_back(e.key);
  }
  return sketch;
}

BinaryInstanceSketch SampleBinaryBottomK(const std::vector<uint64_t>& keys,
                                         int k, uint64_t salt) {
  PIE_CHECK(k > 0);
  BinaryInstanceSketch sketch;
  sketch.salt = salt;
  const SeedFunction seed(salt);
  if (static_cast<int>(keys.size()) <= k) {
    sketch.keys = keys;
    sketch.p = 1.0;
    return sketch;
  }
  // Keep the k smallest seeds; the (k+1)-st smallest is the conditioning
  // probability.
  std::vector<std::pair<double, uint64_t>> seeded;
  seeded.reserve(keys.size());
  for (uint64_t key : keys) seeded.push_back({seed(key), key});
  std::nth_element(seeded.begin(), seeded.begin() + k, seeded.end());
  sketch.p = seeded[static_cast<size_t>(k)].first;
  sketch.keys.reserve(static_cast<size_t>(k));
  for (int i = 0; i < k; ++i) {
    sketch.keys.push_back(seeded[static_cast<size_t>(i)].second);
  }
  return sketch;
}

DistinctClassification ClassifyDistinct(
    const BinaryInstanceSketch& s1, const BinaryInstanceSketch& s2,
    const std::function<bool(uint64_t)>& pred) {
  const SeedFunction u1 = s1.seed_fn();
  const SeedFunction u2 = s2.seed_fn();
  std::unordered_set<uint64_t> in_s2(s2.keys.begin(), s2.keys.end());

  DistinctClassification c;
  for (uint64_t key : s1.keys) {
    if (pred && !pred(key)) continue;
    if (in_s2.count(key)) {
      ++c.f11;
    } else if (u2(key) < s2.p) {
      ++c.f10;  // seed would have sampled it in instance 2: certified absent
    } else {
      ++c.f1q;
    }
  }
  std::unordered_set<uint64_t> in_s1(s1.keys.begin(), s1.keys.end());
  for (uint64_t key : s2.keys) {
    if (pred && !pred(key)) continue;
    if (in_s1.count(key)) continue;  // already counted as F11
    if (u1(key) < s1.p) {
      ++c.f01;
    } else {
      ++c.fq1;
    }
  }
  return c;
}

double DistinctHtEstimate(const DistinctClassification& c, double p1,
                          double p2) {
  const CategoryWeights w = DistinctWeights(Family::kHt, p1, p2);
  return static_cast<double>(c.f11) * w.f11 +
         static_cast<double>(c.f10) * w.f10 +
         static_cast<double>(c.f01) * w.f01 +
         static_cast<double>(c.f1q) * w.f1q +
         static_cast<double>(c.fq1) * w.fq1;
}

double DistinctLEstimate(const DistinctClassification& c, double p1,
                         double p2) {
  const CategoryWeights w = DistinctWeights(Family::kL, p1, p2);
  return static_cast<double>(c.f11) * w.f11 +
         static_cast<double>(c.f10) * w.f10 +
         static_cast<double>(c.f01) * w.f01 +
         static_cast<double>(c.f1q) * w.f1q +
         static_cast<double>(c.fq1) * w.fq1;
}

double DistinctIntersectionEstimate(const DistinctClassification& c,
                                    double p1, double p2) {
  return static_cast<double>(c.f11) / (p1 * p2);
}

Result<DistinctSelectedEstimate> DistinctAutoEstimate(
    const DistinctClassification& c, double p1, double p2) {
  auto chosen = SelectorCache::Global().Choose(
      Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds,
      SamplingParams({p1, p2}));
  PIE_RETURN_IF_ERROR(chosen.status());
  const CategoryWeights w = DistinctWeights(chosen->family, p1, p2);
  DistinctSelectedEstimate out;
  out.family = chosen->family;
  out.estimate = static_cast<double>(c.f11) * w.f11 +
                 static_cast<double>(c.f10) * w.f10 +
                 static_cast<double>(c.f01) * w.f01 +
                 static_cast<double>(c.f1q) * w.f1q +
                 static_cast<double>(c.fq1) * w.fq1;
  return out;
}

DistinctEstimateWithCi DistinctLEstimateWithCi(const DistinctClassification& c,
                                               double p1, double p2,
                                               double z) {
  PIE_CHECK(z > 0);
  DistinctEstimateWithCi out;
  out.estimate = DistinctLEstimate(c, p1, p2);
  if (out.estimate <= 0) return out;
  const double inter = DistinctIntersectionEstimate(c, p1, p2);
  out.jaccard = std::fmin(1.0, std::fmax(0.0, inter / out.estimate));
  out.stddev =
      std::sqrt(DistinctLVariance(out.estimate, out.jaccard, p1, p2));
  out.lo = std::fmax(0.0, out.estimate - z * out.stddev);
  out.hi = out.estimate + z * out.stddev;
  return out;
}

namespace {

// Per-key variances of the three membership patterns, from the OR kernel's
// Variance hook, memoized through the same helper as DistinctWeights.
struct VarianceWeights {
  double v11, v10, v01;
};

VarianceWeights DistinctVarianceWeights(Family family, double p1, double p2) {
  return MemoizedOrWeights<VarianceWeights>(
      family, p1, p2, [](const EstimatorKernel& k) {
        return VarianceWeights{k.Variance({1.0, 1.0}).value(),
                               k.Variance({1.0, 0.0}).value(),
                               k.Variance({0.0, 1.0}).value()};
      });
}

}  // namespace

double DistinctHtVariance(double distinct, double p1, double p2) {
  // The HT per-key variance 1/(p1 p2) - 1 is the same for every membership
  // pattern with OR(v) = 1, so the aggregate does not depend on Jaccard.
  return distinct * DistinctVarianceWeights(Family::kHt, p1, p2).v11;
}

double DistinctLVariance(double distinct, double jaccard, double p1,
                         double p2) {
  PIE_CHECK(jaccard >= 0 && jaccard <= 1);
  // Keys in the intersection are (1,1) keys; the rest of the union splits
  // between (1,0) and (0,1). With p1 = p2 the two have equal variance; for
  // generality split the non-intersection mass evenly.
  const VarianceWeights w = DistinctVarianceWeights(Family::kL, p1, p2);
  const double both = distinct * jaccard;
  const double only = distinct - both;
  return both * w.v11 + 0.5 * only * (w.v10 + w.v01);
}

}  // namespace pie
