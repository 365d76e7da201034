// The fused-scan and parallel-driver invariants:
//  * registry sweep: EstimateWithVarianceMany is BITWISE identical to the
//    two separate EstimateMany / EstimateSecondMomentMany passes it fuses
//    (est equal to the estimate pass, var equal to est^2 - second moment),
//    on randomized batches including empty and single-row ones -- so every
//    driver can switch to the fused call without perturbing results;
//  * the deterministic scan driver (engine/parallel_scan.h) produces the
//    same bytes for 1, 2, and 8 threads -- fixed-size chunking plus a
//    fixed-shape pairwise tree reduction make the output a function of the
//    chunk size alone -- on every kernel and on a log-heavy weighted
//    max^(L) batch;
//  * EstimateSum, AccuracyAccumulator, and ScanSum/ScanBatch agree
//    bitwise on the same batch (one reduction definition across the
//    codebase).

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "accuracy/accumulator.h"
#include "engine/engine.h"
#include "engine/parallel_scan.h"
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

// Random data vector matching the kernel's domain (binary for OR; scaled
// nonnegative reals spanning below- and above-threshold values for PPS).
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

void FillRandomBatch(const KernelEntry& entry, const SamplingParams& params,
                     int size, Rng& rng, OutcomeBatch* batch) {
  batch->Reset(entry.spec.scheme, params.r());
  for (int i = 0; i < size; ++i) {
    const std::vector<double> values = RandomValues(entry, params, rng);
    const Outcome o = SampleOutcome(entry.spec.scheme, params, values, rng);
    if (entry.spec.scheme == Scheme::kOblivious) {
      batch->Append(o.oblivious);
    } else {
      batch->Append(o.pps);
    }
  }
}

// ---------------------------------------------------------------------------
// Fused pass == two-pass bridge, registry-wide
// ---------------------------------------------------------------------------

TEST(FusedScanTest, EstimateWithVarianceManyBitwiseMatchesTwoPasses) {
  for (const auto& entry : KernelRegistry::Global().Entries()) {
    for (const auto& params : entry.example_params) {
      auto kernel = entry.factory(entry.spec, params);
      ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
      Rng rng(HashCombine(HashBytes(entry.spec.ToString()),
                          static_cast<uint64_t>(params.r()) + 31));
      for (const int batch_size : {0, 1, 2, 57, 256, 700}) {
        OutcomeBatch batch;
        FillRandomBatch(entry, params, batch_size, rng, &batch);
        const BatchView view = batch.view();

        std::vector<double> est_two(static_cast<size_t>(batch_size) + 1);
        std::vector<double> second(static_cast<size_t>(batch_size) + 1);
        (*kernel)->EstimateMany(view, est_two.data());
        (*kernel)->EstimateSecondMomentMany(view, second.data());

        std::vector<double> est_fused(static_cast<size_t>(batch_size) + 1);
        std::vector<double> var_fused(static_cast<size_t>(batch_size) + 1);
        (*kernel)->EstimateWithVarianceMany(view, est_fused.data(),
                                            var_fused.data());

        for (int i = 0; i < batch_size; ++i) {
          const size_t s = static_cast<size_t>(i);
          EXPECT_TRUE(BitwiseEqual(est_fused[s], est_two[s]))
              << (*kernel)->name() << " estimate row " << i;
          EXPECT_TRUE(BitwiseEqual(var_fused[s],
                                   est_two[s] * est_two[s] - second[s]))
              << (*kernel)->name() << " variance row " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Deterministic parallel driver
// ---------------------------------------------------------------------------

void ExpectSameBitsForOneTwoAndEightThreads(const EstimatorKernel& kernel,
                                            const BatchView& view) {
  ScanOptions options;
  options.num_threads = 1;
  const ScanPartial one = ScanBatch(kernel, view, options);
  for (const int threads : {2, 8}) {
    options.num_threads = threads;
    const ScanPartial many = ScanBatch(kernel, view, options);
    EXPECT_TRUE(BitwiseEqual(many.sum, one.sum))
        << kernel.name() << " sum @" << threads;
    EXPECT_TRUE(BitwiseEqual(many.variance, one.variance))
        << kernel.name() << " variance @" << threads;
    EXPECT_EQ(many.per_key.count(), one.per_key.count());
    EXPECT_TRUE(BitwiseEqual(many.per_key.mean(), one.per_key.mean()))
        << kernel.name() << " mean @" << threads;
    EXPECT_TRUE(BitwiseEqual(many.per_key.m2(), one.per_key.m2()))
        << kernel.name() << " m2 @" << threads;
    EXPECT_TRUE(BitwiseEqual(ScanSum(kernel, view, threads), one.sum))
        << kernel.name() << " ScanSum @" << threads;
  }
}

TEST(ParallelScanTest, SameBitsForOneTwoAndEightThreads) {
  for (const auto& entry : KernelRegistry::Global().Entries()) {
    const auto& params = entry.example_params.front();
    auto kernel = entry.factory(entry.spec, params);
    ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
    Rng rng(HashCombine(HashBytes(entry.spec.ToString()), 4242));
    OutcomeBatch batch;
    // Spans many chunks, with a ragged tail (not a multiple of 256).
    FillRandomBatch(entry, params, 2011, rng, &batch);
    ExpectSameBitsForOneTwoAndEightThreads(**kernel, batch.view());
  }

  // Log-heavy weighted max^(L) batch: both entries sampled and below their
  // thresholds, so every row takes a std::log closed form (eqs. 29/30).
  const SamplingParams params({10.0, 8.0});
  auto kernel = KernelRegistry::Global().Create(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
      params);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  Rng rng(107);
  OutcomeBatch batch;
  batch.Reset(Scheme::kPps, 2);
  std::vector<double> values(2);
  while (batch.size() < 4103) {
    values[0] = rng.UniformDouble(0.5, 9.9);
    values[1] = values[0] * rng.UniformDouble(0.1, 0.8);
    const PpsOutcome outcome = SamplePps(values, params.per_entry, rng);
    if (outcome.sampled[0] != 0 && outcome.sampled[1] != 0) {
      batch.Append(outcome);
    }
  }
  ExpectSameBitsForOneTwoAndEightThreads(**kernel, batch.view());
}

TEST(ParallelScanTest, EstimateSumAndAccumulatorShareTheReduction) {
  auto kernel = KernelRegistry::Global().Create(
      {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL},
      SamplingParams({10.0, 8.0}));
  ASSERT_TRUE(kernel.ok());
  const KernelEntry* entry = nullptr;
  for (const auto& e : KernelRegistry::Global().Entries()) {
    if (e.spec.function == Function::kMax && e.spec.scheme == Scheme::kPps &&
        e.spec.family == Family::kL) {
      entry = &e;
    }
  }
  ASSERT_NE(entry, nullptr);
  Rng rng(7);
  OutcomeBatch batch;
  FillRandomBatch(*entry, SamplingParams({10.0, 8.0}), 1500, rng, &batch);

  const double sum = EstimateSum(**kernel, batch);
  EXPECT_TRUE(BitwiseEqual(EstimateSum(**kernel, batch, /*num_threads=*/4),
                           sum));
  AccuracyAccumulator acc;
  acc.AddBatch(**kernel, batch);
  EXPECT_TRUE(BitwiseEqual(acc.sum(), sum));
  AccuracyAccumulator acc4;
  acc4.AddBatch(**kernel, batch, /*num_threads=*/4);
  EXPECT_TRUE(BitwiseEqual(acc4.sum(), sum));
  EXPECT_TRUE(BitwiseEqual(acc4.variance(), acc.variance()));
  AccuracyAccumulator point_only;
  point_only.AddBatchEstimateOnly(**kernel, batch, /*num_threads=*/2);
  EXPECT_TRUE(BitwiseEqual(point_only.sum(), sum));
  EXPECT_EQ(point_only.variance(), 0.0);
}

TEST(ParallelScanTest, EmptyAndSingleChunkBatches) {
  auto kernel = KernelRegistry::Global().Create(
      {Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL},
      {0.5, 0.3});
  ASSERT_TRUE(kernel.ok());
  OutcomeBatch batch;
  batch.Reset(Scheme::kOblivious, 2);
  ScanOptions options;
  options.num_threads = 8;
  const ScanPartial empty = ScanBatch(**kernel, batch.view(), options);
  EXPECT_EQ(empty.sum, 0.0);
  EXPECT_EQ(empty.variance, 0.0);
  EXPECT_EQ(empty.per_key.count(), 0);
  EXPECT_EQ(ScanSum(**kernel, batch.view(), 8), 0.0);

  // A sub-chunk batch reduces to the plain row-order sum: the scalar loop
  // is the single-chunk special case of the driver.
  Rng rng(3);
  std::vector<Outcome> outcomes;
  for (int i = 0; i < 57; ++i) {
    outcomes.push_back(SampleOutcome(
        Scheme::kOblivious, {0.5, 0.3},
        {rng.UniformDouble(0, 10), rng.UniformDouble(0, 10)}, rng));
    batch.Append(outcomes.back().oblivious);
  }
  double scalar_sum = 0.0;
  for (const Outcome& o : outcomes) scalar_sum += (*kernel)->Estimate(o);
  EXPECT_TRUE(BitwiseEqual(ScanSum(**kernel, batch.view(), 8), scalar_sum));
}

TEST(ParallelScanTest, TreeReduceShapeDependsOnlyOnCount) {
  struct P {
    double v = 0.0;
    void Merge(const P& o) { v += o.v; }
  };
  // Shape check against the hand-rolled tree for 5 elements:
  // ((0+1)+(2+3))+4.
  std::vector<P> p(5);
  const double vals[5] = {1e16, 1.0, -1e16, 3.0, 0.5};
  for (int i = 0; i < 5; ++i) p[static_cast<size_t>(i)].v = vals[i];
  TreeReduce(p.data(), 5);
  const double expected = ((vals[0] + vals[1]) + (vals[2] + vals[3])) + vals[4];
  EXPECT_TRUE(BitwiseEqual(p[0].v, expected));
}

}  // namespace
}  // namespace pie
