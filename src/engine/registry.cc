#include "engine/registry.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "core/functions.h"
#include "core/ht.h"
#include "core/max_l_three.h"
#include "core/max_oblivious.h"
#include "core/max_weighted.h"
#include "core/min_weighted.h"
#include "core/or_oblivious.h"
#include "core/or_weighted.h"
#include "engine/pattern_partition.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace pie {
namespace {

// ---------------------------------------------------------------------------
// Adapter kernels around the core estimator classes. Each adapter fixes the
// sampler configuration at construction so per-key estimation reuses the
// precomputed coefficient tables.
// ---------------------------------------------------------------------------

// Matches an entry on everything but l: LthLargest registrations carry a
// representative l, and the requested l is passed to the factory.
bool SpecMatches(const KernelSpec& entry, const KernelSpec& lookup) {
  return entry.function == lookup.function &&
         entry.scheme == lookup.scheme && entry.regime == lookup.regime &&
         entry.family == lookup.family;
}

Status RequireR(int got, int r) {
  if (got != r) {
    return Status::InvalidArgument("kernel requires r = " + std::to_string(r) +
                                   " instances, got " + std::to_string(got));
  }
  return Status::OK();
}

Status RequireBinary(const std::vector<double>& values) {
  for (double v : values) {
    if (v != 0.0 && v != 1.0) {
      return Status::InvalidArgument("OR variance requires binary values");
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Pattern-partitioned branch-free block loops.
//
// Batches are processed in blocks of kPartitionBlockRows rows: each block
// is partitioned into stable index buckets by sampling pattern
// (engine/pattern_partition.h), every bucket's rows are gathered into
// dense columns and evaluated by ONE closed form with no data-dependent
// branches -- so the compiler can auto-vectorize the lane loops (PIE_SIMD
// adds the AVX2 and if-conversion flags on pie_build_flags; see
// CMakeLists.txt) -- then scattered back to row-indexed outputs. Each
// form hoists only row-invariant coefficients and otherwise replicates
// the scalar estimator's floating-point expression tree operation for
// operation; the bitwise contract (batched == scalar, any thread count,
// either PIE_SIMD setting) is enforced registry-wide by
// tests/simd_partition_test.cc and tests/parallel_scan_test.cc.
// ---------------------------------------------------------------------------

/// Vectorizable std::fmin(1.0, x). GCC will not auto-vectorize fmin on
/// x86 (no vector optab for IEEE min), but with the first operand fixed at
/// 1.0 the blend below returns bit-identical values for EVERY input: for
/// non-NaN x it is the ordinary minimum, and for NaN the comparison is
/// false so both forms yield 1.0.
inline double Min1(double x) { return x < 1.0 ? x : 1.0; }

/// Where a kernel's batched second-moment estimate comes from.
enum class SecondMoment {
  kBlock,     ///< Block writes its own unbiased f(v)^2 estimate
  kEstimate,  ///< binary domain: OR(v)^2 = OR(v), so the point estimate
              ///< IS the unbiased second-moment estimate
};

/// The one batched driver of the registry kernels. Derived states its math
/// once, as a block function over block.size <= kPartitionBlockRows rows:
///   void Block(BatchView block, double* est, double* second) const;
/// filling the point estimates into est and the second-moment estimates
/// into second, either of which may be null (kBlock); or, for binary
/// kernels (kEstimate),
///   void Block(BatchView block, double* est) const;
/// The driver owns the layout check, the block loop, all three batched
/// overrides, and the fused combine var = est*est - second.
template <typename Derived, SecondMoment kSecond = SecondMoment::kBlock>
class BlockKernel : public EstimatorKernel {
 public:
  void EstimateMany(BatchView batch, double* out) const final {
    Drive(batch, out, nullptr, nullptr);
  }
  void EstimateSecondMomentMany(BatchView batch, double* out) const final {
    if constexpr (kBinary) {
      Drive(batch, out, nullptr, nullptr);
    } else {
      Drive(batch, nullptr, out, nullptr);
    }
  }
  void EstimateWithVarianceMany(BatchView batch, double* est,
                                double* var) const final {
    Drive(batch, est, kBinary ? nullptr : var, var);
  }
  // For binary kernels 0/1 are fixed points of squaring, so this is
  // bitwise the base squared-outcome bridge.
  double EstimateSecondMoment(const Outcome& outcome) const override {
    if constexpr (kBinary) {
      return this->Estimate(outcome);
    } else {
      return EstimatorKernel::EstimateSecondMoment(outcome);
    }
  }

 protected:
  BlockKernel(Scheme scheme, int r) : scheme_(scheme), r_(r) {}

 private:
  static constexpr bool kBinary = kSecond == SecondMoment::kEstimate;

  /// Runs Block over the batch's blocks; with `var` set, second == var
  /// (or est, for binary kernels) and each block is combined in place.
  void Drive(BatchView batch, double* est, double* second,
             double* var) const {
    CheckBatchLayout(batch, scheme_, r_);
    const Derived& self = static_cast<const Derived&>(*this);
    for (int base = 0; base < batch.size; base += kPartitionBlockRows) {
      const int n = std::min(kPartitionBlockRows, batch.size - base);
      const BatchView block = batch.Slice(base, n);
      double* e = est != nullptr ? est + base : nullptr;
      if constexpr (kBinary) {
        self.Block(block, e);
      } else {
        self.Block(block, e, second != nullptr ? second + base : nullptr);
      }
      if (var == nullptr) continue;
      double* v = var + base;
      const double* m2 = kBinary ? e : v;
      for (int i = 0; i < n; ++i) v[i] = e[i] * e[i] - m2[i];
    }
  }

  Scheme scheme_;
  int r_;
};

/// Hoisted per-pattern forms of MaxLTwo::EstimateRow (equation (12)).
struct MaxLTwoForms {
  double q, p12, a1, a2;
  explicit MaxLTwoForms(const MaxLTwo& est)
      : q(est.q()),
        p12(est.p1() * est.p2()),
        a1(1.0 / est.p2() - 1.0),
        a2(1.0 / est.p1() - 1.0) {}
  double Only0(double v) const { return v / q; }
  double Only1(double v) const { return v / q; }
  double Both(double v0, double v1) const {
    return std::max(v0, v1) / p12 - (a1 * v0 + a2 * v1) / q;
  }
};

/// Hoisted per-pattern forms of MaxUTwo::EstimateRow (Section 4.2).
struct MaxUTwoForms {
  double pc1, pc2, b1, b2, c, p12;
  explicit MaxUTwoForms(const MaxUTwo& est)
      : pc1(est.p1() * est.c()),
        pc2(est.p2() * est.c()),
        b1(1.0 - est.p2()),
        b2(1.0 - est.p1()),
        c(est.c()),
        p12(est.p1() * est.p2()) {}
  double Only0(double v) const { return v / pc1; }
  double Only1(double v) const { return v / pc2; }
  double Both(double v0, double v1) const {
    return (std::max(v0, v1) - (v0 * b1 + v1 * b2) / c) / p12;
  }
};

/// Hoisted per-pattern forms of MaxUAsymTwo::EstimateRow (Section 4.2).
struct MaxUAsymTwoForms {
  double p1, m, k2, k1, p12;
  explicit MaxUAsymTwoForms(const MaxUAsymTwo& est)
      : p1(est.p1()),
        m(est.m()),
        k2(est.p2() * (1.0 - est.p1()) / est.m()),
        k1(1.0 - est.p2()),
        p12(est.p1() * est.p2()) {}
  double Only0(double v) const { return v / p1; }
  double Only1(double v) const { return v / m; }
  double Both(double v0, double v1) const {
    return (std::max(v0, v1) - k2 * v1 - k1 * v0) / p12;
  }
};

/// Hoisted per-pattern forms of OrLTwo::EstimateRow (Section 4.3).
struct OrLTwoForms {
  double q, p12, a1, a2;
  explicit OrLTwoForms(const OrLTwo& est)
      : q(est.q()),
        p12(est.p1() * est.p2()),
        a1(1.0 / est.p2() - 1.0),
        a2(1.0 / est.p1() - 1.0) {}
  double Only0(double v) const { return v / q; }
  double Only1(double v) const { return v / q; }
  double Both(double v0, double v1) const {
    const double or_v = (v0 != 0.0 || v1 != 0.0) ? 1.0 : 0.0;
    return or_v / p12 - (a1 * v0 + a2 * v1) / q;
  }
};

/// Applies an r=2 form set bucket by bucket over one partitioned block, to
/// the sampled values or (`square`) to their squares -- the bucket twin of
/// SquareSampledRow + EstimateRow. Rows with neither entry sampled
/// estimate 0.
template <typename Forms>
void ApplyR2Forms(const double* value, const R2Partition& part,
                  const Forms& f, bool square, double* out) {
  double v0[kPartitionBlockRows];
  double v1[kPartitionBlockRows];
  double e[kPartitionBlockRows];
  const auto gather = [&](int bucket, int col, double* v) {
    GatherColumn(value, 2, col, part.idx[bucket], part.count[bucket], v);
    if (square) {
      for (int k = 0; k < part.count[bucket]; ++k) v[k] *= v[k];
    }
  };
  ScatterConstant(0.0, part.idx[0], part.count[0], out);
  gather(1, 0, v0);
  for (int k = 0; k < part.count[1]; ++k) e[k] = f.Only0(v0[k]);
  Scatter(e, part.idx[1], part.count[1], out);
  gather(2, 1, v1);
  for (int k = 0; k < part.count[2]; ++k) e[k] = f.Only1(v1[k]);
  Scatter(e, part.idx[2], part.count[2], out);
  gather(3, 0, v0);
  gather(3, 1, v1);
  for (int k = 0; k < part.count[3]; ++k) e[k] = f.Both(v0[k], v1[k]);
  Scatter(e, part.idx[3], part.count[3], out);
}

/// Block of an r=2 oblivious kernel: one partition serves the estimate and
/// the second-moment (squared lanes) passes.
template <typename Forms>
void R2FormsBlock(BatchView block, const Forms& f, double* est,
                  double* second) {
  R2Partition part;
  PartitionR2(block.sampled, block.size, &part);
  if (est != nullptr) ApplyR2Forms(block.value, part, f, false, est);
  if (second != nullptr) ApplyR2Forms(block.value, part, f, true, second);
}

/// OrUTwo's scalar row form checks that sampled values are binary before
/// delegating to max^(U); keep the checks (they guard caller bugs) in one
/// pass ahead of the branch-free bucket loops.
void CheckR2BinarySampled(BatchView block) {
  for (int i = 0; i < block.size; ++i) {
    const uint8_t* sampled = block.sampled_row(i);
    const double* value = block.value_row(i);
    for (int j = 0; j < 2; ++j) {
      if (sampled[j]) {
        PIE_CHECK(value[j] == 0.0 || value[j] == 1.0);
      }
    }
  }
}

/// Branch-free MaxLWeightedTwo::EvalSorted over dense determining-vector
/// lanes. Pass 1 orders each pair by blends and resolves the log-free
/// regimes (hi <= 0; equation (26); the constant regime hi >= tau_hi); the
/// two log regimes (equations (29)/(30)) evaluate in a second pass so the
/// scalar std::log runs only on lanes that need it. Regime tests replicate
/// EvalSorted's check order exactly.
inline void EvalSortedDense(const double* d1, const double* d2, int n,
                            double tau1, double tau2, double* out) {
  double hi_a[kPartitionBlockRows];
  double lo_a[kPartitionBlockRows];
  double th_a[kPartitionBlockRows];
  double tl_a[kPartitionBlockRows];
  // Pure double lanes (a uint8 regime flag here would block the
  // vectorizer: no 4x8-bit vector type pairs with the 4x64-bit lanes);
  // the compaction loop below re-derives the regime from the stored pairs.
  for (int k = 0; k < n; ++k) {
    const bool first = d1[k] >= d2[k];
    const double hi = first ? d1[k] : d2[k];
    const double lo = first ? d2[k] : d1[k];
    const double th = first ? tau1 : tau2;
    const double tl = first ? tau2 : tau1;
    hi_a[k] = hi;
    lo_a[k] = lo;
    th_a[k] = th;
    tl_a[k] = tl;
    const double e26 = lo + (hi - lo) / Min1(hi / th);
    const bool zero = hi <= 0;
    const bool low_certain = lo >= tl;
    const bool high_certain = hi >= th;
    out[k] = zero ? 0.0 : (low_certain ? e26 : (high_certain ? hi : 0.0));
  }
  // Pass 2: compact the log lanes by regime so only the std::log call
  // itself runs scalar; the divide-heavy arithmetic before and after it is
  // dense and branch-free. Every expression keeps EvalSorted's exact parse
  // tree (additions stay left-associated), so splitting the evaluation
  // around the log does not move a single rounding.
  // Branch-free compaction (unconditional stores + predicated increments):
  // the regime split is ~50/50 on mixed batches, so a branchy loop would
  // mispredict on nearly every lane.
  uint16_t idx29[kPartitionBlockRows];
  uint16_t idx30[kPartitionBlockRows];
  int n29 = 0, n30 = 0;
  for (int k = 0; k < n; ++k) {
    const bool needs_log =
        !(hi_a[k] <= 0) && !(lo_a[k] >= tl_a[k]) && !(hi_a[k] >= th_a[k]);
    const bool is29 = hi_a[k] <= tl_a[k];
    idx29[n29] = static_cast<uint16_t>(k);
    idx30[n30] = static_cast<uint16_t>(k);
    n29 += needs_log && is29 ? 1 : 0;
    n30 += needs_log && !is29 ? 1 : 0;
  }
  {
    // Live counters for ROADMAP open item 1a: the share of serving
    // max^(L) rows that lands in the scalar std::log regimes is now a
    // metric instead of a perf-profile claim. Counters only -- the lane
    // math above and below is untouched.
    struct LogLaneCounters {
      obs::Counter& rows;
      obs::Counter& eq29;
      obs::Counter& eq30;
    };
    static LogLaneCounters* const counters = [] {
      auto& reg = obs::MetricsRegistry::Global();
      return new LogLaneCounters{
          reg.GetCounter("pie_simd_maxl_rows_total",
                         "Rows through the dense weighted max^(L) r=2 "
                         "evaluator"),
          reg.GetCounter("pie_simd_log_lanes_total",
                         "Rows requiring a scalar std::log, by closed-form "
                         "equation", {{"eq", "29"}}),
          reg.GetCounter("pie_simd_log_lanes_total",
                         "Rows requiring a scalar std::log, by closed-form "
                         "equation", {{"eq", "30"}})};
    }();
    counters->rows.Add(static_cast<uint64_t>(n));
    if (n29 > 0) counters->eq29.Add(static_cast<uint64_t>(n29));
    if (n30 > 0) counters->eq30.Add(static_cast<uint64_t>(n30));
  }
  double hi_d[kPartitionBlockRows], lo_d[kPartitionBlockRows];
  double th_d[kPartitionBlockRows], tl_d[kPartitionBlockRows];
  double lg[kPartitionBlockRows], res[kPartitionBlockRows];
  if (n29 > 0) {  // equation (29): hi <= tau_lo
    GatherColumn(hi_a, 1, 0, idx29, n29, hi_d);
    GatherColumn(lo_a, 1, 0, idx29, n29, lo_d);
    GatherColumn(th_a, 1, 0, idx29, n29, th_d);
    GatherColumn(tl_a, 1, 0, idx29, n29, tl_d);
    for (int k = 0; k < n29; ++k) {
      const double b = th_d[k] + tl_d[k];
      lg[k] = (b - lo_d[k]) * hi_d[k] / (lo_d[k] * (b - hi_d[k]));
    }
    for (int k = 0; k < n29; ++k) lg[k] = std::log(lg[k]);
    for (int k = 0; k < n29; ++k) {
      const double hi = hi_d[k], lo = lo_d[k];
      const double tau_hi = th_d[k], tau_lo = tl_d[k];
      const double b = tau_hi + tau_lo;
      res[k] = tau_hi * tau_lo / (b - hi) +
               tau_hi * tau_lo * (tau_hi - hi) / (hi * b) * lg[k] +
               (hi - lo) * tau_hi * tau_lo * (tau_hi - hi) /
                   (hi * (b - lo) * (b - hi));
    }
    Scatter(res, idx29, n29, out);
  }
  if (n30 > 0) {  // equation (30): tau_lo < hi < tau_hi
    GatherColumn(hi_a, 1, 0, idx30, n30, hi_d);
    GatherColumn(lo_a, 1, 0, idx30, n30, lo_d);
    GatherColumn(th_a, 1, 0, idx30, n30, th_d);
    GatherColumn(tl_a, 1, 0, idx30, n30, tl_d);
    for (int k = 0; k < n30; ++k) {
      const double b = th_d[k] + tl_d[k];
      lg[k] = (b - lo_d[k]) * tl_d[k] / (lo_d[k] * th_d[k]);
    }
    for (int k = 0; k < n30; ++k) lg[k] = std::log(lg[k]);
    for (int k = 0; k < n30; ++k) {
      const double hi = hi_d[k], lo = lo_d[k];
      const double tau_hi = th_d[k], tau_lo = tl_d[k];
      const double b = tau_hi + tau_lo;
      res[k] = tau_hi + tau_lo - tau_hi * tau_lo / hi +
               tau_hi * tau_lo * (tau_hi - hi) / (hi * b) * lg[k] +
               tau_lo * (tau_hi - hi) * (tau_lo - lo) / ((b - lo) * hi);
    }
    Scatter(res, idx30, n30, out);
  }
}

/// Dense r=2 block of MaxHtWeighted (shared by the weighted max kernels'
/// second moments): per bucket, the identified max, its identifiability
/// flag, and prob = min(1, mx/tau1) min(1, mx/tau2) are branch-free;
/// non-identified lanes blend to 0. Null output pointers skip a result.
inline void MaxHtR2Block(BatchView block, double tau1, double tau2,
                         double* est, double* second) {
  R2Partition part;
  PartitionR2(block.sampled, block.size, &part);
  double v[kPartitionBlockRows];
  double sd[kPartitionBlockRows];
  double bt[kPartitionBlockRows];
  double e[kPartitionBlockRows];
  double s[kPartitionBlockRows];
  for (int bucket = 0; bucket < 4; ++bucket) {
    const uint16_t* idx = part.idx[bucket];
    const int cnt = part.count[bucket];
    if (bucket == 0) {
      if (est != nullptr) ScatterConstant(0.0, idx, cnt, est);
      if (second != nullptr) ScatterConstant(0.0, idx, cnt, second);
      continue;
    }
    if (bucket == 3) {
      GatherColumn(block.value, 2, 0, idx, cnt, v);
      GatherColumn(block.value, 2, 1, idx, cnt, sd);  // reuse as v1 lanes
      for (int k = 0; k < cnt; ++k) {
        const double mx = std::max(std::max(0.0, v[k]), sd[k]);
        const bool ok = mx > 0;
        const double prob = Min1(mx / tau1) * Min1(mx / tau2);
        e[k] = ok ? mx / prob : 0.0;
        s[k] = ok ? mx * mx / prob : 0.0;
      }
    } else {
      // Exactly one entry sampled: the other entry's seed bound decides
      // identifiability (MaxHtWeighted::IdentifiedMax).
      const int have = bucket == 1 ? 0 : 1;
      const int miss = 1 - have;
      GatherColumn(block.value, 2, have, idx, cnt, v);
      GatherColumn(block.seed, 2, miss, idx, cnt, sd);
      GatherColumn(block.param, 2, miss, idx, cnt, bt);
      // ok = mx > 0 && !(bound > mx) split into two single-comparison
      // blends (v[k] > 0 iff mx > 0 since mx = max(0, v[k])): GCC's
      // if-converter refuses the fused && form, and each chain picks the
      // same value the scalar path does.
      for (int k = 0; k < cnt; ++k) {
        const double mx = std::max(0.0, v[k]);
        const double bound = sd[k] * bt[k];
        const double prob = Min1(mx / tau1) * Min1(mx / tau2);
        const double e_ok = bound > mx ? 0.0 : mx / prob;
        const double s_ok = bound > mx ? 0.0 : mx * mx / prob;
        e[k] = v[k] > 0 ? e_ok : 0.0;
        s[k] = v[k] > 0 ? s_ok : 0.0;
      }
    }
    if (est != nullptr) Scatter(e, idx, cnt, est);
    if (second != nullptr) Scatter(s, idx, cnt, second);
  }
}

/// Horvitz-Thompson over weight-oblivious outcomes for any primitive f.
class ObliviousHtKernel : public BlockKernel<ObliviousHtKernel> {
 public:
  ObliviousHtKernel(std::string name, VectorFunction f,
                    std::vector<double> p)
      : BlockKernel(Scheme::kOblivious, static_cast<int>(p.size())),
        name_(std::move(name)),
        f_(std::move(f)),
        p_(std::move(p)) {}

  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return ObliviousHtEstimate(outcome.oblivious, f_);
  }
  double EstimateSecondMoment(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    const ObliviousOutcome& o = outcome.oblivious;
    std::vector<double> scratch;
    scratch.reserve(p_.size());
    return ObliviousHtSecondMomentRow(o.p.data(), o.sampled.data(),
                                      o.value.data(), o.r(), f_, &scratch);
  }
  /// All-sampled partition: non-survivors estimate 0 without touching f_
  /// (a std::function, so its lane math cannot fuse into a branch-free
  /// loop -- the win is routing rows that cannot contribute around the
  /// all-sampled scan and call machinery). Survivors run the fused scalar
  /// row core, whose estimate/second pair shares one f(v) evaluation.
  void Block(BatchView block, double* est, double* second) const {
    std::vector<double> scratch;
    scratch.reserve(p_.size());
    AllSampledPartition part;
    PartitionAllSampled(block.sampled, block.r, block.size, &part);
    if (est != nullptr) {
      ScatterConstant(0.0, part.rest, part.rest_count, est);
    }
    if (second != nullptr) {
      ScatterConstant(0.0, part.rest, part.rest_count, second);
    }
    for (int k = 0; k < part.count; ++k) {
      const int i = part.idx[k];
      double e, s;
      ObliviousHtEstimateWithSecondMomentRow(
          block.param_row(i), block.sampled_row(i), block.value_row(i),
          block.r, f_, &scratch, &e, &s);
      if (est != nullptr) est[i] = e;
      if (second != nullptr) second[i] = s;
    }
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    return ObliviousHtVariance(values, p_, f_);
  }
  std::string name() const override { return name_; }

 private:
  std::string name_;
  VectorFunction f_;
  std::vector<double> p_;
};

/// Squares the sampled entries of a length-r row into `out` (unsampled
/// slots are copied through untouched; the estimators never read them, but
/// copying keeps the row well-formed). The slab-loop twin of the base
/// EstimateSecondMoment's squared-outcome bridge: x * x on the same lanes,
/// so the batched and scalar second-moment paths stay bitwise identical.
inline void SquareSampledRow(const uint8_t* sampled, const double* value,
                             int r, double* out) {
  for (int i = 0; i < r; ++i) {
    out[i] = sampled[i] ? value[i] * value[i] : value[i];
  }
}

class MaxLTwoKernel : public BlockKernel<MaxLTwoKernel> {
 public:
  MaxLTwoKernel(double p1, double p2)
      : BlockKernel(Scheme::kOblivious, 2), est_(p1, p2) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void Block(BatchView block, double* est, double* second) const {
    R2FormsBlock(block, MaxLTwoForms(est_), est, second);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    return est_.Variance(values[0], values[1]);
  }
  std::string name() const override { return "max^(L) oblivious r=2"; }

 private:
  MaxLTwo est_;
};

class MaxLThreeKernel : public EstimatorKernel {
 public:
  MaxLThreeKernel(double p1, double p2, double p3) : est_(p1, p2, p3) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 3));
    return est_.Variance({values[0], values[1], values[2]});
  }
  std::string name() const override { return "max^(L) oblivious r=3"; }

 private:
  MaxLThree est_;
};

class MaxLUniformKernel : public BlockKernel<MaxLUniformKernel> {
 public:
  MaxLUniformKernel(int r, double p)
      : BlockKernel(Scheme::kOblivious, r), est_(r, p) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  // The Theorem 4.2 estimate is a sorted dot product, so survivor rows
  // stay scalar; partitioning pays by routing empty outcomes (estimate
  // exactly 0) around the sort entirely.
  void Block(BatchView block, double* est, double* second) const {
    const int r = est_.r();
    std::vector<double> scratch;
    scratch.reserve(static_cast<size_t>(r));
    std::vector<double> sq(static_cast<size_t>(r));
    AllSampledPartition part;
    PartitionAnySampled(block.sampled, r, block.size, &part);
    if (est != nullptr) {
      ScatterConstant(0.0, part.rest, part.rest_count, est);
    }
    if (second != nullptr) {
      ScatterConstant(0.0, part.rest, part.rest_count, second);
    }
    for (int k = 0; k < part.count; ++k) {
      const int i = part.idx[k];
      const uint8_t* sampled = block.sampled_row(i);
      const double* value = block.value_row(i);
      if (est != nullptr) est[i] = est_.EstimateRow(sampled, value, &scratch);
      if (second != nullptr) {
        SquareSampledRow(sampled, value, r, sq.data());
        second[i] = est_.EstimateRow(sampled, sq.data(), &scratch);
      }
    }
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    if (static_cast<int>(values.size()) != est_.r() || est_.r() > 25) {
      return Status::InvalidArgument(
          "exact max^(L) variance needs matching r <= 25");
    }
    return est_.Variance(values);
  }
  std::string name() const override {
    return "max^(L) oblivious uniform r=" + std::to_string(est_.r());
  }

 private:
  MaxLUniform est_;
};

class MaxUTwoKernel : public BlockKernel<MaxUTwoKernel> {
 public:
  MaxUTwoKernel(double p1, double p2)
      : BlockKernel(Scheme::kOblivious, 2), est_(p1, p2) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void Block(BatchView block, double* est, double* second) const {
    R2FormsBlock(block, MaxUTwoForms(est_), est, second);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    return est_.Variance(values[0], values[1]);
  }
  std::string name() const override { return "max^(U) oblivious r=2"; }

 private:
  MaxUTwo est_;
};

class MaxUAsymTwoKernel : public BlockKernel<MaxUAsymTwoKernel> {
 public:
  MaxUAsymTwoKernel(double p1, double p2)
      : BlockKernel(Scheme::kOblivious, 2), est_(p1, p2) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void Block(BatchView block, double* est, double* second) const {
    R2FormsBlock(block, MaxUAsymTwoForms(est_), est, second);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    return est_.Variance(values[0], values[1]);
  }
  std::string name() const override { return "max^(Uas) oblivious r=2"; }

 private:
  MaxUAsymTwo est_;
};

class OrLTwoKernel
    : public BlockKernel<OrLTwoKernel, SecondMoment::kEstimate> {
 public:
  OrLTwoKernel(double p1, double p2)
      : BlockKernel(Scheme::kOblivious, 2), est_(p1, p2) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void Block(BatchView block, double* est) const {
    R2FormsBlock(block, OrLTwoForms(est_), est, nullptr);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    return est_.Variance(static_cast<int>(values[0]),
                         static_cast<int>(values[1]));
  }
  std::string name() const override { return "OR^(L) oblivious r=2"; }

 private:
  OrLTwo est_;
};

class OrLUniformKernel
    : public BlockKernel<OrLUniformKernel, SecondMoment::kEstimate> {
 public:
  OrLUniformKernel(int r, double p)
      : BlockKernel(Scheme::kOblivious, r), est_(r, p) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  // Rows without a sampled entry estimate 0 dense; survivors run the
  // checked counting row (the estimate itself is a prefix-sum lookup).
  void Block(BatchView block, double* est) const {
    AllSampledPartition part;
    PartitionAnySampled(block.sampled, est_.r(), block.size, &part);
    ScatterConstant(0.0, part.rest, part.rest_count, est);
    for (int k = 0; k < part.count; ++k) {
      const int i = part.idx[k];
      est[i] = est_.EstimateRow(block.sampled_row(i), block.value_row(i));
    }
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), est_.r()));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    int ones = 0;
    for (double v : values) ones += v != 0.0 ? 1 : 0;
    return est_.Variance(ones);
  }
  std::string name() const override {
    return "OR^(L) oblivious uniform r=" + std::to_string(est_.r());
  }

 private:
  OrLUniform est_;
};

class OrUTwoKernel
    : public BlockKernel<OrUTwoKernel, SecondMoment::kEstimate> {
 public:
  OrUTwoKernel(double p1, double p2)
      : BlockKernel(Scheme::kOblivious, 2), est_(p1, p2) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kOblivious);
    return est_.Estimate(outcome.oblivious);
  }
  void Block(BatchView block, double* est) const {
    CheckR2BinarySampled(block);
    R2FormsBlock(block, MaxUTwoForms(est_.max_u()), est, nullptr);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    return est_.Variance(static_cast<int>(values[0]),
                         static_cast<int>(values[1]));
  }
  std::string name() const override { return "OR^(U) oblivious r=2"; }

 private:
  OrUTwo est_;
};

class MaxHtWeightedKernel : public BlockKernel<MaxHtWeightedKernel> {
 public:
  explicit MaxHtWeightedKernel(std::vector<double> tau)
      : BlockKernel(Scheme::kPps, static_cast<int>(tau.size())),
        est_(std::move(tau)) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return est_.Estimate(outcome.pps);
  }
  double EstimateSecondMoment(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    const PpsOutcome& o = outcome.pps;
    return est_.SecondMomentRow(o.tau.data(), o.seed.data(),
                                o.sampled.data(), o.value.data());
  }
  // r = 2 runs dense per pattern bucket; wider rows run the fused scalar
  // row core.
  void Block(BatchView block, double* est, double* second) const {
    if (block.r == 2) {
      MaxHtR2Block(block, est_.tau()[0], est_.tau()[1], est, second);
      return;
    }
    for (int i = 0; i < block.size; ++i) {
      double e, s;
      est_.EstimateWithSecondMomentRow(block.param_row(i), block.seed_row(i),
                                       block.sampled_row(i),
                                       block.value_row(i), &e, &s);
      if (est != nullptr) est[i] = e;
      if (second != nullptr) second[i] = s;
    }
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    return est_.Variance(values);
  }
  std::string name() const override {
    return "max^(HT) pps known-seeds r=" +
           std::to_string(est_.tau().size());
  }

 private:
  MaxHtWeighted est_;
};

class MaxLWeightedTwoKernel : public BlockKernel<MaxLWeightedTwoKernel> {
 public:
  MaxLWeightedTwoKernel(double tau1, double tau2, double quad_tol)
      : BlockKernel(Scheme::kPps, 2),
        est_(tau1, tau2, quad_tol),
        second_({tau1, tau2}) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return est_.Estimate(outcome.pps);
  }
  // The second moment uses the identifiable-event inverse-probability form
  // (max_sampled^2 / p on outcomes that pin down max(v)); any unbiased
  // estimator of max^2 serves, and this one is closed-form, nonnegative,
  // and shares the slab layout -- see MaxHtWeighted::SecondMomentRow.
  double EstimateSecondMoment(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    const PpsOutcome& o = outcome.pps;
    return second_.SecondMomentRow(o.tau.data(), o.seed.data(),
                                   o.sampled.data(), o.value.data());
  }
  // Per bucket the block builds the max^(L) determining vector (d1, d2)
  // and, when asked, the identifiable-event second moment from the SAME
  // gathered columns (they share the largest sampled value and the seed
  // upper bounds), then EvalSortedDense evaluates the non-log regimes
  // vectorized and resolves the log regimes in a scalar tail. Every
  // expression matches MaxLWeightedTwo::EstimateRow /
  // MaxHtWeighted::SecondMomentRow operation for operation.
  void Block(BatchView block, double* est, double* second) const {
    const double tau1 = est_.tau1();
    const double tau2 = est_.tau2();
    if (est == nullptr) {
      // Same identifiable-event arithmetic as MaxHtWeighted r=2.
      MaxHtR2Block(block, tau1, tau2, nullptr, second);
      return;
    }
    R2Partition part;
    PartitionR2(block.sampled, block.size, &part);
    double d1[kPartitionBlockRows], d2[kPartitionBlockRows];
    double sd[kPartitionBlockRows], bt[kPartitionBlockRows];
    double e[kPartitionBlockRows], s[kPartitionBlockRows];
    ScatterConstant(0.0, part.idx[0], part.count[0], est);
    if (second != nullptr) {
      ScatterConstant(0.0, part.idx[0], part.count[0], second);
    }
    // The three sampled buckets build their lanes into disjoint SEGMENTS
    // of one dense array, so EvalSortedDense runs once per block (one
    // pass-1 sweep, one log compaction, one vector tail) instead of once
    // per bucket. The evaluation is per-lane independent, so
    // concatenation changes no bits.
    int seg[4] = {0, 0, 0, 0};
    int off = 0;
    for (int bucket = 1; bucket <= 2; ++bucket) {
      const uint16_t* idx = part.idx[bucket];
      const int cnt = part.count[bucket];
      seg[bucket] = off;
      if (cnt == 0) continue;
      const int have = bucket == 1 ? 0 : 1;
      const int miss = 1 - have;
      double* dh = (bucket == 1 ? d1 : d2) + off;
      double* dm = (bucket == 1 ? d2 : d1) + off;
      GatherColumn(block.value, 2, have, idx, cnt, dh);
      GatherColumn(block.seed, 2, miss, idx, cnt, sd);
      GatherColumn(block.param, 2, miss, idx, cnt, bt);
      for (int k = 0; k < cnt; ++k) dm[k] = std::min(sd[k] * bt[k], dh[k]);
      if (second != nullptr) {
        // ok split into single-comparison blends as in MaxHtR2Block.
        double* sb = s + off;
        for (int k = 0; k < cnt; ++k) {
          const double bound = sd[k] * bt[k];
          const double mx = std::max(0.0, dh[k]);
          const double prob = Min1(mx / tau1) * Min1(mx / tau2);
          const double s_ok = bound > mx ? 0.0 : mx * mx / prob;
          sb[k] = dh[k] > 0 ? s_ok : 0.0;
        }
      }
      off += cnt;
    }
    seg[3] = off;
    if (part.count[3] > 0) {
      const uint16_t* idx = part.idx[3];
      const int cnt = part.count[3];
      double* da = d1 + off;
      double* db = d2 + off;
      GatherColumn(block.value, 2, 0, idx, cnt, da);
      GatherColumn(block.value, 2, 1, idx, cnt, db);
      if (second != nullptr) {
        double* sb = s + off;
        for (int k = 0; k < cnt; ++k) {
          const double mx = std::max(std::max(0.0, da[k]), db[k]);
          const double prob = Min1(mx / tau1) * Min1(mx / tau2);
          sb[k] = mx > 0 ? mx * mx / prob : 0.0;
        }
      }
      off += cnt;
    }
    if (off == 0) return;
    EvalSortedDense(d1, d2, off, tau1, tau2, e);
    for (int bucket = 1; bucket <= 3; ++bucket) {
      const uint16_t* idx = part.idx[bucket];
      const int cnt = part.count[bucket];
      Scatter(e + seg[bucket], idx, cnt, est);
      if (second != nullptr) Scatter(s + seg[bucket], idx, cnt, second);
    }
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    return est_.Variance(values[0], values[1]);
  }
  std::string name() const override { return "max^(L) pps known-seeds r=2"; }

 private:
  MaxLWeightedTwo est_;
  MaxHtWeighted second_;
};

/// OR over weighted PPS samples with known seeds, r = 2; the family selects
/// HT, L, or U through the binary outcome mapping of Section 5.1.
class OrWeightedTwoKernel
    : public BlockKernel<OrWeightedTwoKernel, SecondMoment::kEstimate> {
 public:
  OrWeightedTwoKernel(double tau1, double tau2, Family family)
      : BlockKernel(Scheme::kPps, 2), est_(tau1, tau2), family_(family) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    switch (family_) {
      case Family::kHt:
        return est_.EstimateHt(outcome.pps);
      case Family::kL:
        return est_.EstimateL(outcome.pps);
      default:
        return est_.EstimateU(outcome.pps);
    }
  }
  // Section 5.1 mapping first (per row, keeps its checks), then the rows
  // are partitioned on the MAPPED sampled flags -- a seed below p_i turns
  // a missing entry into a certified zero, so the mapped pattern, not the
  // raw one, selects the estimator's closed form.
  void Block(BatchView block, double* est) const {
    double p_blk[2 * kPartitionBlockRows];
    uint8_t s_blk[2 * kPartitionBlockRows];
    double v_blk[2 * kPartitionBlockRows];
    for (int i = 0; i < block.size; ++i) {
      MapBinaryPpsRowToOblivious(block.param_row(i), block.seed_row(i),
                                 block.sampled_row(i), block.value_row(i), 2,
                                 p_blk + 2 * i, s_blk + 2 * i, v_blk + 2 * i);
    }
    R2Partition part;
    PartitionR2(s_blk, block.size, &part);
    switch (family_) {
      case Family::kL:
        ApplyR2Forms(v_blk, part, OrLTwoForms(est_.or_l()), false, est);
        break;
      case Family::kHt: {  // positive only when both mapped-sampled.
        ScatterConstant(0.0, part.idx[0], part.count[0], est);
        ScatterConstant(0.0, part.idx[1], part.count[1], est);
        ScatterConstant(0.0, part.idx[2], part.count[2], est);
        const uint16_t* idx = part.idx[3];
        const int cnt = part.count[3];
        if (cnt > 0) {
          double v0[kPartitionBlockRows], v1[kPartitionBlockRows];
          double p0[kPartitionBlockRows], p1[kPartitionBlockRows];
          double e[kPartitionBlockRows];
          GatherColumn(v_blk, 2, 0, idx, cnt, v0);
          GatherColumn(v_blk, 2, 1, idx, cnt, v1);
          GatherColumn(p_blk, 2, 0, idx, cnt, p0);
          GatherColumn(p_blk, 2, 1, idx, cnt, p1);
          for (int k = 0; k < cnt; ++k) {
            const bool any = v0[k] != 0.0 || v1[k] != 0.0;
            e[k] = any ? 1.0 / (p0[k] * p1[k]) : 0.0;
          }
          Scatter(e, idx, cnt, est);
        }
        break;
      }
      default:
        // Mapped values are 0/1 by construction (the mapping already
        // checked them), so OrUTwo reduces to its max^(U) arithmetic.
        ApplyR2Forms(v_blk, part, MaxUTwoForms(est_.or_u().max_u()), false,
                     est);
        break;
    }
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), 2));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    // Section 5.1: over binary domains the known-seeds weighted outcome is
    // equivalent to an oblivious one with p_i = min(1, 1/tau_i).
    const int v1 = static_cast<int>(values[0]);
    const int v2 = static_cast<int>(values[1]);
    switch (family_) {
      case Family::kHt:
        return OrOf(values) == 0.0 ? 0.0
                                   : OrHtVariance({est_.p1(), est_.p2()});
      case Family::kL:
        return OrLTwo(est_.p1(), est_.p2()).Variance(v1, v2);
      default:
        return OrUTwo(est_.p1(), est_.p2()).Variance(v1, v2);
    }
  }
  std::string name() const override {
    return std::string("OR^(") + FamilyToString(family_) +
           ") pps known-seeds r=2";
  }

 private:
  OrWeightedTwo est_;
  Family family_;
};

/// OR over r weighted PPS samples with a uniform threshold, HT or L.
class OrWeightedUniformKernel
    : public BlockKernel<OrWeightedUniformKernel, SecondMoment::kEstimate> {
 public:
  OrWeightedUniformKernel(int r, double tau, Family family)
      : BlockKernel(Scheme::kPps, r), est_(r, tau), family_(family) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return family_ == Family::kHt ? est_.EstimateHt(outcome.pps)
                                  : est_.EstimateL(outcome.pps);
  }
  // Map every row (keeping the mapping's checks), partition the block on
  // the MAPPED flags, and run the family's row form only on rows that can
  // estimate nonzero; the rest are exactly 0.
  void Block(BatchView block, double* est) const {
    const int r = est_.r();
    const size_t slab = static_cast<size_t>(r) * kPartitionBlockRows;
    std::vector<double> p_blk(slab);
    std::vector<uint8_t> s_blk(slab);
    std::vector<double> v_blk(slab);
    for (int i = 0; i < block.size; ++i) {
      MapBinaryPpsRowToOblivious(
          block.param_row(i), block.seed_row(i), block.sampled_row(i),
          block.value_row(i), r, p_blk.data() + i * r, s_blk.data() + i * r,
          v_blk.data() + i * r);
    }
    AllSampledPartition part;
    if (family_ == Family::kHt) {
      PartitionAllSampled(s_blk.data(), r, block.size, &part);
      ScatterConstant(0.0, part.rest, part.rest_count, est);
      for (int k = 0; k < part.count; ++k) {
        const int i = part.idx[k];
        est[i] = OrHtEstimateRow(p_blk.data() + i * r, s_blk.data() + i * r,
                                 v_blk.data() + i * r, r);
      }
    } else {
      PartitionAnySampled(s_blk.data(), r, block.size, &part);
      ScatterConstant(0.0, part.rest, part.rest_count, est);
      for (int k = 0; k < part.count; ++k) {
        const int i = part.idx[k];
        est[i] = est_.or_l().EstimateRow(s_blk.data() + i * r,
                                         v_blk.data() + i * r);
      }
    }
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    PIE_RETURN_IF_ERROR(RequireR(static_cast<int>(values.size()), est_.r()));
    PIE_RETURN_IF_ERROR(RequireBinary(values));
    if (OrOf(values) == 0.0) return 0.0;
    if (family_ == Family::kHt) {
      return OrHtVariance(std::vector<double>(
          static_cast<size_t>(est_.r()), est_.p()));
    }
    int ones = 0;
    for (double v : values) ones += v != 0.0 ? 1 : 0;
    return OrLUniform(est_.r(), est_.p()).Variance(ones);
  }
  std::string name() const override {
    return std::string("OR^(") + FamilyToString(family_) +
           ") pps known-seeds uniform r=" + std::to_string(est_.r());
  }

 private:
  OrWeightedUniform est_;
  Family family_;
};

class MinHtWeightedKernel : public BlockKernel<MinHtWeightedKernel> {
 public:
  explicit MinHtWeightedKernel(std::vector<double> tau)
      : BlockKernel(Scheme::kPps, static_cast<int>(tau.size())),
        est_(std::move(tau)) {}
  double Estimate(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return est_.Estimate(outcome.pps);
  }
  double EstimateSecondMoment(const Outcome& outcome) const override {
    PIE_DCHECK(outcome.scheme == Scheme::kPps);
    return est_.SecondMomentRow(outcome.pps.sampled.data(),
                                outcome.pps.value.data());
  }
  /// Dense all-sampled lanes: survivors accumulate the columnwise min and
  /// all-sampled probability in entry order (mirroring AllSampledMin);
  /// everything else estimates 0.
  void Block(BatchView block, double* est, double* second) const {
    const std::vector<double>& tau = est_.tau();
    const int r = static_cast<int>(tau.size());
    AllSampledPartition part;
    PartitionAllSampled(block.sampled, r, block.size, &part);
    if (est != nullptr) {
      ScatterConstant(0.0, part.rest, part.rest_count, est);
    }
    if (second != nullptr) {
      ScatterConstant(0.0, part.rest, part.rest_count, second);
    }
    double col[kPartitionBlockRows];
    double mn[kPartitionBlockRows];
    double prob[kPartitionBlockRows];
    for (int j = 0; j < r; ++j) {
      GatherColumn(block.value, r, j, part.idx, part.count, col);
      const double tau_j = tau[static_cast<size_t>(j)];
      if (j == 0) {
        for (int k = 0; k < part.count; ++k) {
          mn[k] = col[k];
          prob[k] = Min1(col[k] / tau_j);
        }
      } else {
        for (int k = 0; k < part.count; ++k) {
          mn[k] = std::fmin(mn[k], col[k]);
          prob[k] *= Min1(col[k] / tau_j);
        }
      }
    }
    double e[kPartitionBlockRows];
    double s[kPartitionBlockRows];
    for (int k = 0; k < part.count; ++k) {
      e[k] = mn[k] / prob[k];
      s[k] = mn[k] * mn[k] / prob[k];
    }
    if (est != nullptr) Scatter(e, part.idx, part.count, est);
    if (second != nullptr) Scatter(s, part.idx, part.count, second);
  }
  Result<double> Variance(const std::vector<double>& values) const override {
    return est_.Variance(values);
  }
  std::string name() const override {
    return "min^(HT) pps r=" + std::to_string(est_.tau().size());
  }

 private:
  MinHtWeighted est_;
};

// ---------------------------------------------------------------------------
// Factories
// ---------------------------------------------------------------------------

using KernelResult = Result<std::unique_ptr<EstimatorKernel>>;

KernelResult MakeMaxObliviousL(const KernelSpec&,
                               const SamplingParams& params) {
  const auto& p = params.per_entry;
  if (params.r() == 2) {
    return std::unique_ptr<EstimatorKernel>(new MaxLTwoKernel(p[0], p[1]));
  }
  if (params.r() == 3) {
    return std::unique_ptr<EstimatorKernel>(
        new MaxLThreeKernel(p[0], p[1], p[2]));
  }
  if (params.r() >= 1 && params.IsUniform()) {
    return std::unique_ptr<EstimatorKernel>(
        new MaxLUniformKernel(params.r(), p[0]));
  }
  return Status::InvalidArgument(
      "general-p max^(L) has closed forms only for r <= 3; r >= 4 requires "
      "uniform p (Theorem 4.2)");
}

KernelResult MakeMaxObliviousU(const KernelSpec&,
                               const SamplingParams& params) {
  PIE_RETURN_IF_ERROR(RequireR(params.r(), 2));
  return std::unique_ptr<EstimatorKernel>(
      new MaxUTwoKernel(params.per_entry[0], params.per_entry[1]));
}

KernelResult MakeMaxObliviousUAsym(const KernelSpec&,
                                   const SamplingParams& params) {
  PIE_RETURN_IF_ERROR(RequireR(params.r(), 2));
  return std::unique_ptr<EstimatorKernel>(
      new MaxUAsymTwoKernel(params.per_entry[0], params.per_entry[1]));
}

KernelResult MakeMaxObliviousHt(const KernelSpec&,
                                const SamplingParams& params) {
  return std::unique_ptr<EstimatorKernel>(new ObliviousHtKernel(
      "max^(HT) oblivious r=" + std::to_string(params.r()), MaxOf,
      params.per_entry));
}

KernelResult MakeOrObliviousL(const KernelSpec&,
                              const SamplingParams& params) {
  const auto& p = params.per_entry;
  if (params.r() == 2) {
    return std::unique_ptr<EstimatorKernel>(new OrLTwoKernel(p[0], p[1]));
  }
  if (params.r() >= 1 && params.IsUniform()) {
    return std::unique_ptr<EstimatorKernel>(
        new OrLUniformKernel(params.r(), p[0]));
  }
  return Status::InvalidArgument(
      "general-p OR^(L) has closed forms only for r = 2; r >= 3 requires "
      "uniform p");
}

KernelResult MakeOrObliviousU(const KernelSpec&,
                              const SamplingParams& params) {
  PIE_RETURN_IF_ERROR(RequireR(params.r(), 2));
  return std::unique_ptr<EstimatorKernel>(
      new OrUTwoKernel(params.per_entry[0], params.per_entry[1]));
}

KernelResult MakeOrObliviousHt(const KernelSpec&,
                               const SamplingParams& params) {
  return std::unique_ptr<EstimatorKernel>(new ObliviousHtKernel(
      "OR^(HT) oblivious r=" + std::to_string(params.r()), OrOf,
      params.per_entry));
}

KernelResult MakeMaxPpsL(const KernelSpec&, const SamplingParams& params) {
  PIE_RETURN_IF_ERROR(RequireR(params.r(), 2));
  return std::unique_ptr<EstimatorKernel>(new MaxLWeightedTwoKernel(
      params.per_entry[0], params.per_entry[1], params.quad_tol));
}

KernelResult MakeMaxPpsHt(const KernelSpec&, const SamplingParams& params) {
  if (params.r() < 1) return Status::InvalidArgument("empty params");
  return std::unique_ptr<EstimatorKernel>(
      new MaxHtWeightedKernel(params.per_entry));
}

KernelResult MakeOrPps(const KernelSpec& spec, const SamplingParams& params) {
  if (params.r() == 2) {
    return std::unique_ptr<EstimatorKernel>(new OrWeightedTwoKernel(
        params.per_entry[0], params.per_entry[1], spec.family));
  }
  if (spec.family != Family::kU && params.r() >= 1 && params.IsUniform()) {
    return std::unique_ptr<EstimatorKernel>(new OrWeightedUniformKernel(
        params.r(), params.per_entry[0], spec.family));
  }
  return Status::InvalidArgument(
      "weighted OR supports r = 2 (any thresholds) or uniform tau (HT/L)");
}

KernelResult MakeMinPpsHt(const KernelSpec&, const SamplingParams& params) {
  if (params.r() < 1) return Status::InvalidArgument("empty params");
  return std::unique_ptr<EstimatorKernel>(
      new MinHtWeightedKernel(params.per_entry));
}

KernelResult MakeLthLargestHt(const KernelSpec& spec,
                              const SamplingParams& params) {
  if (spec.l < 1 || spec.l > params.r()) {
    return Status::InvalidArgument("order statistic l must be in [1, r]");
  }
  const int l = spec.l;
  return std::unique_ptr<EstimatorKernel>(new ObliviousHtKernel(
      "lth-largest^(HT) oblivious l=" + std::to_string(l) +
          " r=" + std::to_string(params.r()),
      [l](const std::vector<double>& v) { return LthOf(v, l); },
      params.per_entry));
}

void RegisterBuiltins(KernelRegistry& registry) {
  auto add = [&registry](Function fn, Scheme sc, Regime re, Family fa,
                         std::string description, KernelFactory factory,
                         std::vector<SamplingParams> examples, int l = 1) {
    KernelEntry entry;
    entry.spec = {fn, sc, re, fa, l};
    entry.description = std::move(description);
    entry.factory = std::move(factory);
    entry.example_params = std::move(examples);
    PIE_CHECK_OK(registry.Register(std::move(entry)));
  };

  // --- weight-oblivious Poisson (Section 4) ---
  add(Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL,
      "dense-first Pareto-optimal max (Thm 4.1/4.2)", MakeMaxObliviousL,
      {{0.5, 0.3}, {0.5, 0.3, 0.7}, {0.4, 0.4, 0.4, 0.4}});
  add(Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kU,
      "sparse-first Pareto-optimal max (Sec 4.2)", MakeMaxObliviousU,
      {{0.5, 0.3}});
  add(Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds,
      Family::kUAsym, "asymmetric Pareto-optimal max (Sec 4.2)",
      MakeMaxObliviousUAsym, {{0.5, 0.3}});
  add(Function::kMax, Scheme::kOblivious, Regime::kKnownSeeds, Family::kHt,
      "all-sampled Horvitz-Thompson max", MakeMaxObliviousHt,
      {{0.5, 0.3}, {0.6, 0.7, 0.8}});
  add(Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kL,
      "dense-first OR, the distinct-count building block (Sec 4.3)",
      MakeOrObliviousL, {{0.5, 0.3}, {0.2, 0.2, 0.2, 0.2}});
  add(Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kU,
      "sparse-first OR (Sec 4.3)", MakeOrObliviousU, {{0.5, 0.3}});
  add(Function::kOr, Scheme::kOblivious, Regime::kKnownSeeds, Family::kHt,
      "all-sampled Horvitz-Thompson OR", MakeOrObliviousHt,
      {{0.5, 0.3}, {0.3, 0.3, 0.3}});
  add(Function::kLthLargest, Scheme::kOblivious, Regime::kKnownSeeds,
      Family::kHt, "all-sampled Horvitz-Thompson l-th largest",
      MakeLthLargestHt, {{0.5, 0.4, 0.6}}, /*l=*/2);

  // --- weighted PPS with known seeds (Section 5) ---
  add(Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kL,
      "Pareto-optimal weighted max from seed bounds (Sec 5.2)", MakeMaxPpsL,
      {{10.0, 8.0}});
  add(Function::kMax, Scheme::kPps, Regime::kKnownSeeds, Family::kHt,
      "inverse-probability weighted max (Sec 5.2)", MakeMaxPpsHt,
      {{10.0, 8.0}, {5.0, 7.0, 9.0}});
  add(Function::kOr, Scheme::kPps, Regime::kKnownSeeds, Family::kL,
      "weighted OR via the binary outcome mapping (Sec 5.1)", MakeOrPps,
      {{3.0, 2.0}, {4.0, 4.0, 4.0}});
  add(Function::kOr, Scheme::kPps, Regime::kKnownSeeds, Family::kU,
      "weighted OR^(U) via the binary outcome mapping (Sec 5.1)", MakeOrPps,
      {{3.0, 2.0}});
  add(Function::kOr, Scheme::kPps, Regime::kKnownSeeds, Family::kHt,
      "weighted OR^(HT) via the binary outcome mapping (Sec 5.1)", MakeOrPps,
      {{3.0, 2.0}, {4.0, 4.0, 4.0}});

  // --- weighted PPS, unknown seeds (Section 6) ---
  add(Function::kMin, Scheme::kPps, Regime::kUnknownSeeds, Family::kHt,
      "inverse-probability min, the one unknown-seeds quantile (Sec 6)",
      MakeMinPpsHt, {{10.0, 8.0}, {6.0, 6.0, 6.0}});
}

}  // namespace

KernelRegistry& KernelRegistry::Global() {
  static KernelRegistry* registry = [] {
    auto* r = new KernelRegistry();
    RegisterBuiltins(*r);
    return r;
  }();
  return *registry;
}

Status KernelRegistry::Register(KernelEntry entry) {
  if (!entry.factory) {
    return Status::InvalidArgument("kernel entry has no factory");
  }
  // Dedup on the same key lookup uses (l is a factory parameter, not part
  // of the lookup key): a second entry differing only in l would be
  // silently unreachable, so reject it here instead.
  for (const auto& existing : entries_) {
    if (SpecMatches(existing.spec, entry.spec)) {
      return Status::InvalidArgument("duplicate kernel spec " +
                                     entry.spec.ToString());
    }
  }
  entries_.push_back(std::move(entry));
  return Status::OK();
}

KernelSpec KernelRegistry::CanonicalSpec(const KernelSpec& spec) const {
  KernelSpec lookup = spec;
  // The oblivious sampled set is full information; both regimes name the
  // same estimator.
  if (lookup.scheme == Scheme::kOblivious) {
    lookup.regime = Regime::kKnownSeeds;
    return lookup;
  }
  // An estimator that needs only unknown seeds remains valid when seeds are
  // known; a known-seeds request served only by an unknown-seeds
  // registration canonicalizes to it.
  if (lookup.scheme == Scheme::kPps && lookup.regime == Regime::kKnownSeeds) {
    for (const auto& entry : entries_) {
      if (SpecMatches(entry.spec, lookup)) return lookup;
    }
    KernelSpec weaker = lookup;
    weaker.regime = Regime::kUnknownSeeds;
    for (const auto& entry : entries_) {
      if (SpecMatches(entry.spec, weaker)) return weaker;
    }
  }
  return lookup;
}

namespace {

/// Labels registry-created kernels with per-spec scan counters (the labels
/// name the CANONICAL spec actually served, so e.g. an oblivious
/// unknown-seeds request counts under known-seeds). Registration is
/// memoized by the metrics registry; the engine additionally memoizes
/// whole kernels, so this runs once per distinct (spec, params).
void AttachKernelCounters(const KernelSpec& spec, EstimatorKernel* kernel) {
  const obs::Labels labels = {{"function", FunctionToString(spec.function)},
                              {"scheme", SchemeToString(spec.scheme)},
                              {"regime", RegimeToString(spec.regime)},
                              {"family", FamilyToString(spec.family)}};
  auto& reg = obs::MetricsRegistry::Global();
  kernel->obs_scans =
      &reg.GetCounter("pie_kernel_scans_total",
                      "Batch scans served, by kernel spec", labels);
  kernel->obs_rows =
      &reg.GetCounter("pie_kernel_rows_total",
                      "Rows estimated, by kernel spec", labels);
}

}  // namespace

Result<std::unique_ptr<EstimatorKernel>> KernelRegistry::Create(
    const KernelSpec& spec, const SamplingParams& params) const {
  const KernelSpec lookup = CanonicalSpec(spec);
  for (const auto& entry : entries_) {
    if (SpecMatches(entry.spec, lookup)) {
      auto created = entry.factory(lookup, params);
      if (created.ok()) {
        AttachKernelCounters(lookup, created->get());
      }
      return created;
    }
  }
  return Status::NotFound("no kernel registered for " + spec.ToString());
}

}  // namespace pie
