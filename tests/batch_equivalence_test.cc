// Registry sweep asserting the batched path is BITWISE-identical to the
// scalar path: for every (function, scheme, regime, family) spec the
// registry can instantiate, EstimateMany over a columnar OutcomeBatch must
// reproduce per-outcome Estimate exactly, on randomized batches including
// empty and single-element ones. Each kernel has one batched path (its
// pattern-partitioned block loop, compiled with or without the PIE_SIMD
// flags) and the scalar Estimate from src/core is its reference. This is
// the invariant that lets every driver (aggregate scans, store queries)
// switch to the columnar API without perturbing results -- the store's
// determinism guarantees ride on it.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "engine/engine.h"
#include "engine/registry.h"
#include "gtest/gtest.h"
#include "util/hashing.h"
#include "util/random.h"

namespace pie {
namespace {

// Exact double equality including the bit pattern (EXPECT_EQ would accept
// 0.0 == -0.0; the determinism guarantee is about bytes).
::testing::AssertionResult BitwiseEqual(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ (bits 0x" << std::hex << ba
         << " vs 0x" << bb << ")";
}

// Random data vector matching the kernel's domain: binary for OR, scaled
// nonnegative reals otherwise (spanning below- and above-threshold values
// for PPS), with occasional all-zero vectors.
std::vector<double> RandomValues(const KernelEntry& entry,
                                 const SamplingParams& params, Rng& rng) {
  const int r = params.r();
  std::vector<double> values(static_cast<size_t>(r), 0.0);
  if (rng.UniformDouble() < 0.1) return values;  // all-zero vector
  if (entry.spec.function == Function::kOr) {
    bool any = false;
    for (double& v : values) {
      v = rng.UniformDouble() < 0.5 ? 1.0 : 0.0;
      any = any || v == 1.0;
    }
    if (!any) values[0] = 1.0;
    return values;
  }
  double scale = 10.0;
  if (entry.spec.scheme == Scheme::kPps) {
    for (double tau : params.per_entry) scale = std::fmax(scale, tau);
  }
  for (double& v : values) v = rng.UniformDouble(0.0, 1.5 * scale);
  return values;
}

TEST(BatchEquivalenceTest, EstimateManyMatchesScalarBitwiseForAllKernels) {
  for (const auto& entry : KernelRegistry::Global().Entries()) {
    for (const auto& params : entry.example_params) {
      auto kernel = entry.factory(entry.spec, params);
      ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
      Rng rng(HashCombine(HashBytes(entry.spec.ToString()),
                          static_cast<uint64_t>(params.r())));
      for (const int batch_size : {0, 1, 2, 57, 256}) {
        OutcomeBatch batch;
        batch.Reset(entry.spec.scheme, params.r());
        std::vector<Outcome> outcomes;
        outcomes.reserve(static_cast<size_t>(batch_size));
        for (int i = 0; i < batch_size; ++i) {
          const std::vector<double> values =
              RandomValues(entry, params, rng);
          outcomes.push_back(
              SampleOutcome(entry.spec.scheme, params, values, rng));
          if (entry.spec.scheme == Scheme::kOblivious) {
            batch.Append(outcomes.back().oblivious);
          } else {
            batch.Append(outcomes.back().pps);
          }
        }
        ASSERT_EQ(batch.size(), batch_size);

        std::vector<double> batched;
        EstimateBatch(**kernel, batch, &batched);
        ASSERT_EQ(static_cast<int>(batched.size()), batch_size);
        double scalar_sum = 0.0;
        for (int i = 0; i < batch_size; ++i) {
          const double scalar = (*kernel)->Estimate(outcomes[i]);
          EXPECT_TRUE(BitwiseEqual(batched[static_cast<size_t>(i)], scalar))
              << (*kernel)->name() << " row " << i << " of " << batch_size;
          scalar_sum += scalar;
        }
        // The chunked sum must accumulate in the same row order as the
        // scalar loop it replaced.
        EXPECT_TRUE(BitwiseEqual(EstimateSum(**kernel, batch), scalar_sum))
            << (*kernel)->name() << " sum over " << batch_size;
      }
    }
  }
}

TEST(BatchEquivalenceTest, DefaultEstimateManyLoopsScalarEstimate) {
  // A kernel that does not override EstimateMany (max^(L) general-p r = 3
  // resolves to the closed-form MaxLThree adapter) still serves the
  // columnar API through the base-class bridge.
  auto kernel = KernelRegistry::Global().Create(
      {Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL},
      {0.5, 0.3, 0.7});
  ASSERT_TRUE(kernel.ok());
  Rng rng(99);
  OutcomeBatch batch;
  batch.Reset(Scheme::kOblivious, 3);
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 64; ++i) {
    outcomes.push_back(SampleOutcome(
        Scheme::kOblivious, {0.5, 0.3, 0.7},
        {rng.UniformDouble(0, 10), rng.UniformDouble(0, 10),
         rng.UniformDouble(0, 10)},
        rng));
    batch.Append(outcomes.back().oblivious);
  }
  std::vector<double> batched;
  EstimateBatch(**kernel, batch, &batched);
  for (int i = 0; i < batch.size(); ++i) {
    EXPECT_TRUE(BitwiseEqual(batched[static_cast<size_t>(i)],
                             (*kernel)->Estimate(outcomes[i])));
  }
}

TEST(BatchEquivalenceTest, ExtractRowRoundTripsAppendedOutcomes) {
  Rng rng(7);
  const SamplingParams params({10.0, 8.0});
  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 8; ++i) {
    outcomes.push_back(SampleOutcome(
        Scheme::kPps, params,
        {rng.UniformDouble(0, 12), rng.UniformDouble(0, 12)}, rng));
    batch.Append(outcomes.back().pps);
  }
  Outcome scratch;
  for (int i = 0; i < batch.size(); ++i) {
    batch.ExtractRowInto(i, &scratch);
    ASSERT_EQ(scratch.scheme, Scheme::kPps);
    EXPECT_EQ(scratch.pps.tau, outcomes[static_cast<size_t>(i)].pps.tau);
    EXPECT_EQ(scratch.pps.seed, outcomes[static_cast<size_t>(i)].pps.seed);
    EXPECT_EQ(scratch.pps.sampled,
              outcomes[static_cast<size_t>(i)].pps.sampled);
    EXPECT_EQ(scratch.pps.value,
              outcomes[static_cast<size_t>(i)].pps.value);
  }
}

}  // namespace
}  // namespace pie
