// Engine-batched estimation queries over store snapshots, with error bars.
//
// A QueryService binds one immutable StoreSnapshot and answers the
// Section 8 sum aggregates -- max/min dominance, L1 distance, distinct /
// Boolean-OR counts -- by scanning the union of sampled keys shard by
// shard: each shard's keys become the rows of a per-shard columnar
// OutcomeBatch, built by the store's one row builder (store/pps_rows.h,
// shared with the offline aggregates), and driven through the estimation
// engine's memoized kernels with one pass per kernel, with a final
// deterministic reduction in shard order. Shards are independent, so the
// scan fans out across worker threads; results are bitwise identical for
// any thread count because each shard's partial is computed identically
// (EstimateMany overrides are bitwise-identical to the scalar path) and
// the reduction order is fixed. Every aggregate but L1Distance runs the
// same private shard scan (ScanShards) and interval finisher
// (FinishIntervals).
//
// Every aggregate returns an IntervalEstimate {estimate, std_err, lo, hi}:
// each shard scan accumulates unbiased per-key variance estimates into
// mergeable AccuracyAccumulators (src/accuracy/). The with-variance scan
// is FUSED -- one EstimateWithVarianceMany slab pass per chunk produces
// the estimate and its variance together, through the deterministic
// chunked driver of engine/parallel_scan.h -- so error bars cost a
// fraction of a second pass, and point estimates stay bitwise identical
// to EstimateSum. L1Distance additionally scans its max^(L) and min^(HT)
// terms jointly over the shared sample, estimating their covariance
// exactly instead of assuming the worst (see L1Distance below).

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "accuracy/accumulator.h"
#include "accuracy/confidence.h"
#include "accuracy/selector.h"
#include "engine/engine.h"
#include "store/sketch_store.h"
#include "util/status.h"

namespace pie {

struct QueryServiceOptions {
  /// Parallelism cap for the per-shard scan AND the within-shard chunk
  /// splits, which share the process-wide persistent WorkerPool
  /// (engine/worker_pool.h): 0 picks the PIE_THREADS environment variable
  /// when set, else clamped hardware_concurrency. 1 scans inline. Result
  /// bits never depend on this value.
  int num_threads = 0;
  /// Quadrature tolerance forwarded to kernels that integrate seed bounds.
  double quad_tol = 1e-10;
  /// Interval policy applied to every aggregate's error bars.
  CiPolicy ci = {};
  /// When false, the per-shard scans skip the second-moment pass: point
  /// estimates are unchanged (still bitwise identical), but every returned
  /// interval is zero-width (variance/std_err/lo-hi spread all 0). For
  /// point-only callers that must not pay for error bars -- roughly half
  /// the scan cost (see bench/perf_accuracy.cc).
  bool with_variance = true;
};

/// A selector-chosen aggregate: which family answered, and its interval.
struct SelectedEstimate {
  KernelSpec spec;
  IntervalEstimate interval;
};

class QueryService {
 public:
  explicit QueryService(std::shared_ptr<const StoreSnapshot> snapshot,
                        QueryServiceOptions options = {});

  /// Max-dominance norm sum_h max(v_i1(h), v_i2(h)) (Section 8.2), via the
  /// per-key weighted max^(HT) / max^(L) kernels over the union of sampled
  /// keys, each with error bars.
  Result<DualInterval> MaxDominance(int i1, int i2) const;

  /// Max-dominance through the variance-driven EstimatorSelector: the
  /// minimum-variance admissible weighted max family for this snapshot's
  /// threshold class answers (the paper's Pareto ordering, operational).
  /// Selections are memoized per threshold class (SelectorCache), so only
  /// the first query against a class pays for the exact-variance ranking.
  Result<SelectedEstimate> MaxDominanceAuto(int i1, int i2) const;

  /// Min-dominance norm sum_h min(v_i1(h), v_i2(h)) via min^(HT)
  /// (Section 6; keys sampled in both instances contribute).
  Result<IntervalEstimate> MinDominanceHt(int i1, int i2) const;

  /// Unbiased L1 distance sum_h |v_i1(h) - v_i2(h)| as max^(L) - min^(HT),
  /// both terms scanned jointly over the shared sample. Because the scan
  /// is joint, the per-key covariance of the two estimators is itself
  /// estimated without bias (X(o) Y(o) minus the identifiable-event
  /// estimate of max * min; see MinHtWeighted::MaxMinProductRow), so the
  /// error bars use the exact Var[X] + Var[Y] - 2 Cov[X, Y] width. The
  /// pre-covariance conservative bound sd(X) + sd(Y) is kept as the
  /// ceiling: the reported interval is never wider than it.
  Result<IntervalEstimate> L1Distance(int i1, int i2) const;

  /// Distinct union through the cached variance-driven selector: the
  /// minimum-variance admissible weighted OR family for this snapshot's
  /// threshold class answers. Same ingestion requirements as
  /// DistinctUnion.
  Result<SelectedEstimate> DistinctUnionAuto(
      const std::vector<int>& instances) const;

  /// Distinct count |union of instances| (Section 8.1) as the sum
  /// aggregate of per-key Boolean OR. Requires unit-weight ingestion (set
  /// semantics: every record weight 1, so tau = 1/p); more than two
  /// instances additionally require a uniform tau.
  Result<DualInterval> DistinctUnion(const std::vector<int>& instances) const;

  /// Horvitz-Thompson subset-sum estimate of one instance's total over
  /// keys selected by `pred` (templated: no allocation on the scan).
  template <typename Pred>
  double SubsetSumHt(int instance, Pred&& pred) const {
    double total = 0.0;
    for (int s = 0; s < snapshot_->num_shards(); ++s) {
      const StreamingPpsSketch* sketch = snapshot_->Shard(s).Instance(instance);
      if (sketch != nullptr) total += sketch->SubsetSumEstimate(pred);
    }
    return total;
  }

  const StoreSnapshot& snapshot() const { return *snapshot_; }

 private:
  /// Runs fn(shard) for every shard on the persistent WorkerPool, up to
  /// ScanThreads() wide. fn must only touch its own shard's slots.
  void ForEachShard(const std::function<void(int)>& fn) const;

  /// options_.num_threads resolved to an effective parallelism
  /// (engine/worker_pool.h ResolveParallelism).
  int ScanThreads() const;

  /// Builds shard `s`'s rows into the batch (store/pps_rows.h); an error
  /// refuses the whole query.
  using RowFill = std::function<Status(int s, OutcomeBatch*)>;
  /// Per kernel, one accumulator per store shard, in shard order.
  using ShardPartials = std::vector<std::vector<AccuracyAccumulator>>;

  /// The shard scan behind every single-term aggregate, traced as span
  /// `span`: fills each shard's rows through `fill`, then accumulates
  /// every kernel's estimate (and variance, when options_.with_variance)
  /// over them. The first refused fill, in shard order, is returned.
  Result<ShardPartials> ScanShards(
      const char* span, const std::vector<const EstimatorKernel*>& kernels,
      const RowFill& fill) const;

  /// One interval per kernel of a ScanShards result: the shard-order
  /// reduction's Interval() on a full store, DegradeFromPartials on a
  /// degraded one (noted under `query`). Every interval's width is
  /// observed.
  std::vector<IntervalEstimate> FinishIntervals(
      const char* query, const ShardPartials& partials) const;

  /// Cluster-sampling extrapolation for degraded snapshots. `est`/`var`
  /// hold one per-shard (estimate, variance) partial per store shard, in
  /// shard order; absent shards' slots are ignored. Treating the m
  /// surviving shards as a size-m sample of the N per-shard totals (keys
  /// hash uniformly across shards), the full-store total is estimated as
  /// sum_surviving / (m/N) and the interval is widened by both the 1/c^2
  /// scaling of the within-shard variance and the between-shard
  /// (finite-population cluster sampling) term N (N - m) s^2 / m --
  /// skipped when with_variance is off (zero-width contract) or m == 1
  /// (s^2 undefined). Deterministic: partials are reduced in shard order.
  IntervalEstimate DegradeInterval(const std::vector<double>& est,
                                   const std::vector<double>& var) const;

  /// DegradeInterval over one kernel's per-shard accumulators.
  IntervalEstimate DegradeFromPartials(
      const std::vector<AccuracyAccumulator>& shards) const;

  std::shared_ptr<const StoreSnapshot> snapshot_;
  QueryServiceOptions options_;
};

}  // namespace pie
