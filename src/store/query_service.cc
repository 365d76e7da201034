#include "store/query_service.h"

#include <cmath>
#include <utility>

#include "core/min_weighted.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/pps_rows.h"
#include "util/check.h"

namespace pie {
namespace {

KernelSpec MaxPpsSpec(Family family) {
  return {Function::kMax, Scheme::kPps, Regime::kKnownSeeds, family};
}

KernelSpec OrPpsSpec(Family family) {
  return {Function::kOr, Scheme::kPps, Regime::kKnownSeeds, family};
}

/// One pie_query_seconds{query=...} series per public aggregate. Callers
/// hold the reference in a function-local static so repeat queries never
/// touch the registry.
obs::Histogram& QueryHistogram(const char* query) {
  return obs::MetricsRegistry::Global().GetHistogram(
      "pie_query_seconds", "Wall time per aggregate query, by query type",
      obs::LatencyBuckets(), {{"query", query}});
}

/// Records the relative width (hi - lo) / |estimate| of every served
/// interval; zero estimates are skipped (the ratio is undefined there).
void ObserveCiWidth(const IntervalEstimate& interval) {
  static obs::Histogram& widths = obs::MetricsRegistry::Global().GetHistogram(
      "pie_ci_relative_width",
      "Relative width (hi - lo) / |estimate| of served confidence intervals",
      obs::RelativeWidthBuckets());
  if (interval.estimate != 0.0) {
    widths.Observe((interval.hi - interval.lo) /
                   std::abs(interval.estimate));
  }
}

/// Instrumentation of the degraded path (registry lookups are fine here:
/// answering from a partial store is the rare case, not the hot path).
void NoteDegradedQuery(const char* query, double coverage) {
  auto& reg = obs::MetricsRegistry::Global();
  reg.GetCounter("pie_degraded_queries_total",
                 "Aggregate queries answered from a degraded (partial-"
                 "coverage) snapshot, by query type",
                 {{"query", query}})
      .Increment();
  reg.GetGauge("pie_degraded_coverage",
               "Shard coverage fraction of the last degraded answer")
      .Set(coverage);
}

/// Instance `instance` of shard `s` as a row source: the shard's sketch
/// (nullptr when the shard never saw the instance) with the snapshot-wide
/// tau and seeds.
PpsSource ShardSource(const StoreSnapshot& snapshot, int s, int instance) {
  return {snapshot.Shard(s).Instance(instance), snapshot.TauFor(instance),
          SeedFunction(snapshot.InstanceSalt(instance))};
}

/// Fills shard s's r = 2 union rows of instances i1 and i2.
auto PairUnionFill(const StoreSnapshot& snapshot, int i1, int i2) {
  return [&snapshot, i1, i2](int s, OutcomeBatch* batch) {
    BuildPairUnion(ShardSource(snapshot, s, i1), ShardSource(snapshot, s, i2),
                   batch);
    return Status::OK();
  };
}

/// Fills shard s's unit-weight union rows of `instances`.
auto UnitUnionFill(const StoreSnapshot& snapshot,
                   const std::vector<int>& instances) {
  return [&snapshot, &instances](int s, OutcomeBatch* batch) {
    std::vector<PpsSource> sources;
    sources.reserve(instances.size());
    for (int instance : instances) {
      sources.push_back(ShardSource(snapshot, s, instance));
    }
    return BuildUnitUnion(sources, batch);
  };
}

}  // namespace

QueryService::QueryService(std::shared_ptr<const StoreSnapshot> snapshot,
                           QueryServiceOptions options)
    : snapshot_(std::move(snapshot)), options_(options) {
  PIE_CHECK(snapshot_ != nullptr);
  PIE_CHECK(options_.num_threads >= 0);
}

int QueryService::ScanThreads() const {
  return ResolveParallelism(options_.num_threads);
}

void QueryService::ForEachShard(const std::function<void(int)>& fn) const {
  // The shard fan-out and the within-shard chunk splits share the one
  // persistent pool, so a skewed store cannot oversubscribe: workers that
  // finish small shards early pick up chunk indices of the hot shard's
  // nested scan instead of idling.
  WorkerPool::Global().ParallelFor(snapshot_->num_shards(), ScanThreads(),
                                   fn);
}

IntervalEstimate QueryService::DegradeInterval(
    const std::vector<double>& est, const std::vector<double>& var) const {
  const int num_shards = snapshot_->num_shards();
  int m = 0;
  double est_sum = 0.0;
  double var_sum = 0.0;
  for (int s = 0; s < num_shards; ++s) {
    if (snapshot_->ShardAbsent(s)) continue;
    ++m;
    est_sum += est[static_cast<size_t>(s)];
    var_sum += var[static_cast<size_t>(s)];
  }
  // m >= 1 always: degraded recovery refuses a generation without at
  // least one verified shard (persist/checkpoint.cc).
  const double c = static_cast<double>(m) / static_cast<double>(num_shards);
  double variance = 0.0;
  if (options_.with_variance) {
    variance = var_sum / (c * c);
    if (m > 1 && m < num_shards) {
      const double mean = est_sum / static_cast<double>(m);
      double ss = 0.0;
      for (int s = 0; s < num_shards; ++s) {
        if (snapshot_->ShardAbsent(s)) continue;
        const double d = est[static_cast<size_t>(s)] - mean;
        ss += d * d;
      }
      variance += static_cast<double>(num_shards) *
                  static_cast<double>(num_shards - m) *
                  (ss / static_cast<double>(m - 1)) / static_cast<double>(m);
    }
  }
  IntervalEstimate out = MakeInterval(est_sum / c, variance, options_.ci);
  out.coverage = c;
  return out;
}

IntervalEstimate QueryService::DegradeFromPartials(
    const std::vector<AccuracyAccumulator>& shards) const {
  std::vector<double> est;
  std::vector<double> var;
  est.reserve(shards.size());
  var.reserve(shards.size());
  for (const auto& shard : shards) {
    est.push_back(shard.sum());
    var.push_back(shard.variance());
  }
  return DegradeInterval(est, var);
}

Result<QueryService::ShardPartials> QueryService::ScanShards(
    const char* span, const std::vector<const EstimatorKernel*>& kernels,
    const RowFill& fill) const {
  obs::ScopedSpan scan_span(span);
  const size_t num_shards = static_cast<size_t>(snapshot_->num_shards());
  ShardPartials partials(kernels.size(),
                         std::vector<AccuracyAccumulator>(num_shards));
  std::vector<Status> fills(num_shards);
  // Idle pool workers split each shard's chunked scan (a hot shard of a
  // skewed store no longer serializes the query); results are unchanged
  // for any value (the chunked driver is thread-count invariant).
  const int scan_threads = ScanThreads();
  ForEachShard([&](int s) {
    const size_t shard = static_cast<size_t>(s);
    OutcomeBatch batch;
    fills[shard] = fill(s, &batch);
    if (!fills[shard].ok()) return;
    for (size_t k = 0; k < kernels.size(); ++k) {
      AccuracyAccumulator& acc = partials[k][shard];
      if (options_.with_variance) {
        acc.AddBatch(*kernels[k], batch, scan_threads);
      } else {
        acc.AddBatchEstimateOnly(*kernels[k], batch, scan_threads);
      }
    }
  });
  for (const Status& status : fills) PIE_RETURN_IF_ERROR(status);
  return partials;
}

std::vector<IntervalEstimate> QueryService::FinishIntervals(
    const char* query, const ShardPartials& partials) const {
  const bool degraded = snapshot_->absent_shards() > 0;
  std::vector<IntervalEstimate> out;
  out.reserve(partials.size());
  for (const auto& shards : partials) {
    if (degraded) {
      out.push_back(DegradeFromPartials(shards));
    } else {
      AccuracyAccumulator total;
      for (const auto& shard : shards) total.Merge(shard);
      out.push_back(total.Interval(options_.ci));
    }
  }
  if (degraded) NoteDegradedQuery(query, out.front().coverage);
  for (const auto& interval : out) ObserveCiWidth(interval);
  return out;
}

Result<DualInterval> QueryService::MaxDominance(int i1, int i2) const {
  static obs::Histogram& latency = QueryHistogram("max_dominance");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/max_dominance");
  const SamplingParams params({snapshot_->TauFor(i1), snapshot_->TauFor(i2)},
                              options_.quad_tol);
  auto& engine = EstimationEngine::Global();
  auto ht = engine.Kernel(MaxPpsSpec(Family::kHt), params);
  auto l = engine.Kernel(MaxPpsSpec(Family::kL), params);
  PIE_RETURN_IF_ERROR(ht.status());
  PIE_RETURN_IF_ERROR(l.status());

  auto partials = ScanShards("scan/max_pair", {ht->get(), l->get()},
                             PairUnionFill(*snapshot_, i1, i2));
  PIE_RETURN_IF_ERROR(partials.status());
  const auto intervals = FinishIntervals("max_dominance", *partials);
  return DualInterval{intervals[0], intervals[1]};
}

Result<SelectedEstimate> QueryService::MaxDominanceAuto(int i1, int i2) const {
  static obs::Histogram& latency = QueryHistogram("max_dominance_auto");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/max_dominance_auto");
  const SamplingParams params({snapshot_->TauFor(i1), snapshot_->TauFor(i2)},
                              options_.quad_tol);
  // One exact-variance ranking per threshold class, ever: repeat queries
  // against the same (tau1, tau2, quad_tol) class serve the cached spec.
  auto chosen = SelectorCache::Global().Choose(
      Function::kMax, Scheme::kPps, Regime::kKnownSeeds, params);
  PIE_RETURN_IF_ERROR(chosen.status());
  auto kernel = EstimationEngine::Global().Kernel(*chosen, params);
  PIE_RETURN_IF_ERROR(kernel.status());

  auto partials = ScanShards("scan/max_pair", {kernel->get()},
                             PairUnionFill(*snapshot_, i1, i2));
  PIE_RETURN_IF_ERROR(partials.status());
  return SelectedEstimate{
      *chosen, FinishIntervals("max_dominance_auto", *partials)[0]};
}

Result<IntervalEstimate> QueryService::MinDominanceHt(int i1, int i2) const {
  static obs::Histogram& latency = QueryHistogram("min_dominance_ht");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/min_dominance_ht");
  auto min_ht = EstimationEngine::Global().Kernel(
      {Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt},
      SamplingParams({snapshot_->TauFor(i1), snapshot_->TauFor(i2)},
                     options_.quad_tol));
  PIE_RETURN_IF_ERROR(min_ht.status());

  // min^(HT) reads only keys sampled in both instances.
  const StoreSnapshot& snapshot = *snapshot_;
  auto partials = ScanShards(
      "scan/min_ht", {min_ht->get()},
      [&snapshot, i1, i2](int s, OutcomeBatch* batch) {
        BuildPairIntersection(ShardSource(snapshot, s, i1),
                              ShardSource(snapshot, s, i2), batch);
        return Status::OK();
      });
  PIE_RETURN_IF_ERROR(partials.status());
  return FinishIntervals("min_dominance_ht", *partials)[0];
}

Result<IntervalEstimate> QueryService::L1Distance(int i1, int i2) const {
  static obs::Histogram& latency = QueryHistogram("l1_distance");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/l1_distance");
  const double tau1 = snapshot_->TauFor(i1);
  const double tau2 = snapshot_->TauFor(i2);
  const SamplingParams params({tau1, tau2}, options_.quad_tol);
  auto& engine = EstimationEngine::Global();
  auto max_l = engine.Kernel(MaxPpsSpec(Family::kL), params);
  PIE_RETURN_IF_ERROR(max_l.status());
  auto min_ht = engine.Kernel(
      {Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt},
      params);
  PIE_RETURN_IF_ERROR(min_ht.status());

  // Joint scan: both estimators read each key's ONE shared outcome from
  // the same union batch, so the per-key covariance is estimable exactly:
  //   Cov-hat = X(o) Y(o) - max*min/p_all on the all-sampled event
  // (MaxMinProductRow; X Y is unbiased for E[XY] trivially, the product
  // term for max(v) min(v)). Keys missing an entry contribute Y = 0 and
  // product-hat = 0, so the cross term costs nothing on sparse rows.
  const MinHtWeighted min_core({tau1, tau2});
  const auto cross = [&min_core](const BatchView& chunk, int i, double x,
                                 double y) {
    return x * y -
           min_core.MaxMinProductRow(chunk.sampled_row(i),
                                     chunk.value_row(i));
  };
  obs::ScopedSpan scan_span("scan/l1_joint");
  std::vector<DifferenceAccumulator> partial(
      static_cast<size_t>(snapshot_->num_shards()));
  ForEachShard([&](int s) {
    OutcomeBatch batch;
    BuildPairUnion(ShardSource(*snapshot_, s, i1),
                   ShardSource(*snapshot_, s, i2), &batch);
    partial[static_cast<size_t>(s)].AddBatch(**max_l, **min_ht, batch, cross,
                                             options_.with_variance);
  });
  IntervalEstimate interval;
  if (snapshot_->absent_shards() > 0) {
    // Each shard's variance is clamped by the same rule as Interval().
    std::vector<double> est;
    std::vector<double> var;
    est.reserve(partial.size());
    var.reserve(partial.size());
    for (const auto& p : partial) {
      est.push_back(p.estimate());
      var.push_back(p.clamped_variance());
    }
    interval = DegradeInterval(est, var);
    NoteDegradedQuery("l1_distance", interval.coverage);
  } else {
    DifferenceAccumulator total;
    for (const auto& p : partial) total.Merge(p);
    interval = total.Interval(options_.ci);
  }
  ObserveCiWidth(interval);
  return interval;
}

Result<DualInterval> QueryService::DistinctUnion(
    const std::vector<int>& instances) const {
  if (instances.size() < 2) {
    return Status::InvalidArgument("distinct union needs >= 2 instances");
  }
  static obs::Histogram& latency = QueryHistogram("distinct_union");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/distinct_union");
  std::vector<double> taus;
  taus.reserve(instances.size());
  for (int instance : instances) taus.push_back(snapshot_->TauFor(instance));
  const SamplingParams params(taus, options_.quad_tol);
  auto& engine = EstimationEngine::Global();
  auto ht = engine.Kernel(OrPpsSpec(Family::kHt), params);
  auto l = engine.Kernel(OrPpsSpec(Family::kL), params);
  PIE_RETURN_IF_ERROR(ht.status());
  PIE_RETURN_IF_ERROR(l.status());

  auto partials = ScanShards("scan/or_union", {ht->get(), l->get()},
                             UnitUnionFill(*snapshot_, instances));
  PIE_RETURN_IF_ERROR(partials.status());
  const auto intervals = FinishIntervals("distinct_union", *partials);
  return DualInterval{intervals[0], intervals[1]};
}

Result<SelectedEstimate> QueryService::DistinctUnionAuto(
    const std::vector<int>& instances) const {
  if (instances.size() < 2) {
    return Status::InvalidArgument("distinct union needs >= 2 instances");
  }
  static obs::Histogram& latency = QueryHistogram("distinct_union_auto");
  obs::ScopedTimer timer(latency);
  obs::ScopedSpan span("query/distinct_union_auto");
  std::vector<double> taus;
  taus.reserve(instances.size());
  for (int instance : instances) taus.push_back(snapshot_->TauFor(instance));
  const SamplingParams params(taus, options_.quad_tol);
  // The cached selector naturally restricts to admissible families: e.g.
  // OR^(U) competes at r = 2 but is excluded for wider unions where only
  // HT and the Theorem 4.2 L recursion have constructions.
  auto chosen = SelectorCache::Global().Choose(
      Function::kOr, Scheme::kPps, Regime::kKnownSeeds, params);
  PIE_RETURN_IF_ERROR(chosen.status());
  auto kernel = EstimationEngine::Global().Kernel(*chosen, params);
  PIE_RETURN_IF_ERROR(kernel.status());

  auto partials = ScanShards("scan/or_union", {kernel->get()},
                             UnitUnionFill(*snapshot_, instances));
  PIE_RETURN_IF_ERROR(partials.status());
  return SelectedEstimate{
      *chosen, FinishIntervals("distinct_union_auto", *partials)[0]};
}

}  // namespace pie
