// Pattern-partition units plus the registry-wide crafted-pattern bitwise
// sweep: for every registered kernel, the batch paths (EstimateMany /
// EstimateSecondMomentMany / EstimateWithVarianceMany -- one
// pattern-partitioned block driver, the same source in every build) must
// be BITWISE identical to the scalar per-row Estimate /
// EstimateSecondMoment path from src/core on batches of every pattern
// shape: empty, single-row, all-sampled, none-sampled, and mixed patterns
// crossing partition-block boundaries, plus an all-sampled shape with every
// value below its threshold, which puts every weighted max^(L) row in the
// std::log closed forms (equations (29)/(30)). Run in both CMake configs (the
// scalar-fallback CI job builds -DPIE_SIMD=OFF, without the AVX2 and
// vectorizer flags), this pins both compilations of the block loops to
// the shared scalar reference.

#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "engine/pattern_partition.h"
#include "engine/registry.h"
#include "gtest/gtest.h"
#include "util/hashing.h"
#include "util/random.h"

namespace pie {
namespace {

::testing::AssertionResult BitwiseEqual(double a, double b) {
  uint64_t ba, bb;
  std::memcpy(&ba, &a, sizeof(ba));
  std::memcpy(&bb, &b, sizeof(bb));
  if (ba == bb) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << a << " and " << b << " differ (bits 0x" << std::hex << ba
         << " vs 0x" << bb << ")";
}

// ---------------------------------------------------------------------------
// Partition units
// ---------------------------------------------------------------------------

TEST(PatternPartitionTest, R2BucketsAreStableAndExhaustive) {
  uint8_t sampled[2 * 8] = {0, 0, 1, 0, 0, 1, 1, 1,
                            1, 0, 1, 1, 0, 0, 0, 1};
  R2Partition part;
  PartitionR2(sampled, 8, &part);
  ASSERT_EQ(part.count[0], 2);
  ASSERT_EQ(part.count[1], 2);
  ASSERT_EQ(part.count[2], 2);
  ASSERT_EQ(part.count[3], 2);
  // Stable: bucket indices ascend in row order.
  EXPECT_EQ(part.idx[0][0], 0);
  EXPECT_EQ(part.idx[0][1], 6);
  EXPECT_EQ(part.idx[1][0], 1);
  EXPECT_EQ(part.idx[1][1], 4);
  EXPECT_EQ(part.idx[2][0], 2);
  EXPECT_EQ(part.idx[2][1], 7);
  EXPECT_EQ(part.idx[3][0], 3);
  EXPECT_EQ(part.idx[3][1], 5);
}

TEST(PatternPartitionTest, AllSampledSplitsOnEveryEntry) {
  uint8_t sampled[3 * 4] = {1, 1, 1, /**/ 1, 0, 1, /**/ 0, 0, 0, /**/ 1, 1,
                            1};
  AllSampledPartition part;
  PartitionAllSampled(sampled, 3, 4, &part);
  ASSERT_EQ(part.count, 2);
  ASSERT_EQ(part.rest_count, 2);
  EXPECT_EQ(part.idx[0], 0);
  EXPECT_EQ(part.idx[1], 3);
  EXPECT_EQ(part.rest[0], 1);
  EXPECT_EQ(part.rest[1], 2);
}

TEST(PatternPartitionTest, GatherScatterRoundTrip) {
  double slab[2 * 4] = {0.5, 1.5, 2.5, 3.5, 4.5, 5.5, 6.5, 7.5};
  const uint16_t idx[3] = {0, 2, 3};
  double dense[3];
  GatherColumn(slab, 2, 1, idx, 3, dense);
  EXPECT_EQ(dense[0], 1.5);
  EXPECT_EQ(dense[1], 5.5);
  EXPECT_EQ(dense[2], 7.5);
  double out[4] = {0, 0, 0, 0};
  Scatter(dense, idx, 3, out);
  ScatterConstant(-1.0, idx + 1, 1, out);
  EXPECT_EQ(out[0], 1.5);
  EXPECT_EQ(out[1], 0.0);
  EXPECT_EQ(out[2], -1.0);
  EXPECT_EQ(out[3], 7.5);
}

// ---------------------------------------------------------------------------
// Registry-wide crafted-pattern sweep
// ---------------------------------------------------------------------------

enum class PatternShape { kAllSampled, kNoneSampled, kMixed, kBelowTau };

/// Fills one handcrafted row: `pattern` gives the sampled flags; values
/// respect each kernel family's domain (binary for OR -- exactly 1.0 on
/// sampled entries of weighted OR, whose mapping checks set semantics;
/// scaled nonnegative reals otherwise, strictly inside (0, tau) per entry
/// for PPS when `below_tau`), and seeds are always populated for PPS so
/// identifiability bounds of unsampled entries are exercised.
void FillRow(const KernelEntry& entry, const SamplingParams& params,
             unsigned pattern, bool below_tau, Rng& rng,
             OutcomeBatch* batch) {
  const int r = params.r();
  const int i = batch->AppendRow();
  uint8_t* sampled = batch->sampled_row(i);
  double* value = batch->value_row(i);
  double* param = batch->param_row(i);
  double scale = 10.0;
  if (entry.spec.scheme == Scheme::kPps) {
    for (double tau : params.per_entry) scale = std::fmax(scale, tau);
  }
  for (int j = 0; j < r; ++j) {
    param[j] = params.per_entry[static_cast<size_t>(j)];
    sampled[j] = (pattern >> j) & 1u;
    if (entry.spec.function == Function::kOr) {
      value[j] = sampled[j] != 0 ? 1.0 : 0.0;
    } else if (below_tau && entry.spec.scheme == Scheme::kPps) {
      value[j] = param[j] * rng.UniformDouble(0.05, 0.99);
    } else {
      value[j] = sampled[j] != 0 ? rng.UniformDouble(0.0, 1.5 * scale) : 0.0;
    }
  }
  if (entry.spec.scheme == Scheme::kPps) {
    double* seed = batch->seed_row(i);
    for (int j = 0; j < r; ++j) seed[j] = rng.UniformDouble();
  }
}

void FillPatternBatch(const KernelEntry& entry, const SamplingParams& params,
                      PatternShape shape, int size, Rng& rng,
                      OutcomeBatch* batch) {
  const int r = params.r();
  batch->Reset(entry.spec.scheme, r);
  const unsigned all = (1u << r) - 1u;
  for (int i = 0; i < size; ++i) {
    unsigned pattern = 0;
    switch (shape) {
      case PatternShape::kAllSampled:
      case PatternShape::kBelowTau:
        pattern = all;
        break;
      case PatternShape::kNoneSampled:
        pattern = 0;
        break;
      case PatternShape::kMixed:
        // Every pattern appears, in a block-crossing repeating order.
        pattern = static_cast<unsigned>(i) % (all + 1u);
        break;
    }
    FillRow(entry, params, pattern, shape == PatternShape::kBelowTau, rng,
            batch);
  }
}

TEST(SimdPartitionTest, BatchPathsMatchScalarOnCraftedPatterns) {
  struct Case {
    PatternShape shape;
    int size;
  };
  const Case cases[] = {
      {PatternShape::kMixed, 0},        {PatternShape::kMixed, 1},
      {PatternShape::kAllSampled, 1},   {PatternShape::kNoneSampled, 1},
      {PatternShape::kAllSampled, 300}, {PatternShape::kNoneSampled, 300},
      {PatternShape::kMixed, 257},      {PatternShape::kMixed, 700},
      {PatternShape::kBelowTau, 4103},
  };
  for (const auto& entry : KernelRegistry::Global().Entries()) {
    for (const auto& params : entry.example_params) {
      auto kernel = entry.factory(entry.spec, params);
      ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
      Rng rng(HashCombine(HashBytes(entry.spec.ToString()),
                          static_cast<uint64_t>(params.r()) + 97));
      for (const auto& c : cases) {
        OutcomeBatch batch;
        FillPatternBatch(entry, params, c.shape, c.size, rng, &batch);
        const BatchView view = batch.view();
        const size_t n = static_cast<size_t>(c.size);

        std::vector<double> est(n + 1), second(n + 1);
        std::vector<double> fused_est(n + 1), fused_var(n + 1);
        (*kernel)->EstimateMany(view, est.data());
        (*kernel)->EstimateSecondMomentMany(view, second.data());
        (*kernel)->EstimateWithVarianceMany(view, fused_est.data(),
                                            fused_var.data());

        Outcome row;
        for (int i = 0; i < c.size; ++i) {
          const size_t s = static_cast<size_t>(i);
          ExtractRow(view, i, &row);
          const double scalar_est = (*kernel)->Estimate(row);
          const double scalar_second = (*kernel)->EstimateSecondMoment(row);
          const std::string label = (*kernel)->name() + " size " +
                                    std::to_string(c.size) + " row " +
                                    std::to_string(i);
          EXPECT_TRUE(BitwiseEqual(est[s], scalar_est)) << label;
          EXPECT_TRUE(BitwiseEqual(second[s], scalar_second)) << label;
          EXPECT_TRUE(BitwiseEqual(fused_est[s], scalar_est)) << label;
          EXPECT_TRUE(BitwiseEqual(
              fused_var[s], scalar_est * scalar_est - scalar_second))
              << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace pie
