// Engineering microbenchmarks (google-benchmark) for the sampling
// substrate: sketch construction throughput (items/second) for Poisson PPS,
// bottom-k, and VarOpt, plus the hash seed function.

#include <benchmark/benchmark.h>

#include "aggregate/dominance.h"
#include "aggregate/sketch.h"
#include "engine/engine.h"
#include "sampling/bottomk.h"
#include "sampling/varopt.h"
#include "store/pps_rows.h"
#include "util/hashing.h"
#include "util/random.h"

namespace pie {
namespace {

std::vector<WeightedItem> MakeItems(int n) {
  Rng rng(7);
  std::vector<WeightedItem> items;
  items.reserve(n);
  for (int i = 0; i < n; ++i) {
    items.push_back({static_cast<uint64_t>(i),
                     1.0 / (1.0 + static_cast<double>(rng.UniformInt(1000)))});
  }
  return items;
}

void BM_SeedFunction(benchmark::State& state) {
  const SeedFunction seed(42);
  uint64_t key = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(seed(key++));
  }
}
BENCHMARK(BM_SeedFunction);

void BM_PpsSketchBuild(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  uint64_t salt = 0;
  for (auto _ : state) {
    auto sketch = StreamingPpsSketch::Build(items, 0.05, ++salt);
    benchmark::DoNotOptimize(sketch.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PpsSketchBuild)->Arg(10000)->Arg(100000);

void BM_BottomKSample(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  uint64_t salt = 0;
  for (auto _ : state) {
    auto sketch =
        BottomKSample(items, 1000, RankFamily::kPps, SeedFunction(++salt));
    benchmark::DoNotOptimize(sketch.threshold);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_BottomKSample)->Arg(10000)->Arg(100000);

void BM_VarOptStream(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  uint64_t seed = 0;
  for (auto _ : state) {
    VarOptSampler sampler(1000, ++seed);
    sampler.AddAll(items);
    benchmark::DoNotOptimize(sampler.threshold());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_VarOptStream)->Arg(10000)->Arg(100000);

// Union-row assembly from two PPS sketches (store/pps_rows.h): the build
// that feeds the estimation engine. OutcomeBatch keeps its columnar slabs
// across Reset(), so steady-state assembly is allocation-free.
void BM_PairOutcomeBatchAssembly(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  const auto s1 = StreamingPpsSketch::Build(items, 0.05, 1);
  const auto s2 = StreamingPpsSketch::Build(items, 0.05, 2);
  OutcomeBatch batch;
  for (auto _ : state) {
    BuildPairUnion(PpsSource::Of(s1), PpsSource::Of(s2), &batch);
    benchmark::DoNotOptimize(batch.size());
  }
  state.SetItemsProcessed(state.iterations() * batch.size());
}
BENCHMARK(BM_PairOutcomeBatchAssembly)->Arg(100000);

// End-to-end max-dominance scan: assemble + estimate through the engine's
// memoized weighted kernels (the refactored aggregate path).
void BM_EstimateMaxDominance(benchmark::State& state) {
  const auto items = MakeItems(static_cast<int>(state.range(0)));
  const auto s1 = StreamingPpsSketch::Build(items, 0.05, 1);
  const auto s2 = StreamingPpsSketch::Build(items, 0.05, 2);
  for (auto _ : state) {
    auto est = EstimateMaxDominance(s1, s2);
    benchmark::DoNotOptimize(est.l);
  }
  state.SetItemsProcessed(state.iterations() * s1.size());
}
BENCHMARK(BM_EstimateMaxDominance)->Arg(100000);

void BM_FindPpsTau(benchmark::State& state) {
  const auto items = MakeItems(100000);
  for (auto _ : state) {
    auto tau = FindPpsTauForExpectedSize(items, 5000.0);
    benchmark::DoNotOptimize(tau.ok());
  }
}
BENCHMARK(BM_FindPpsTau);

}  // namespace
}  // namespace pie

BENCHMARK_MAIN();
