#include "engine/engine.h"

#include <algorithm>
#include <tuple>
#include <utility>

#include "engine/parallel_scan.h"
#include "obs/metrics.h"
#include "util/check.h"

namespace pie {

void OutcomeBatch::Reset(Scheme scheme, int r) {
  PIE_CHECK(r >= 1);
  scheme_ = scheme;
  r_ = r;
  size_ = 0;
}

void OutcomeBatch::Reserve(int rows) {
  PIE_CHECK(r_ >= 1 && "Reset(scheme, r) must fix the layout first");
  const size_t need = static_cast<size_t>(rows) * static_cast<size_t>(r_);
  param_.reserve(need);
  value_.reserve(need);
  sampled_.reserve(need);
  if (scheme_ == Scheme::kPps) seed_.reserve(need);
}

int OutcomeBatch::AppendRow() {
  PIE_CHECK(r_ >= 1 && "Reset(scheme, r) must fix the layout first");
  const size_t need =
      static_cast<size_t>(size_ + 1) * static_cast<size_t>(r_);
  // vector::resize grows geometrically, so repeated appends amortize like
  // push_back while Clear()+refill reuses the slabs untouched.
  if (param_.size() < need) param_.resize(need);
  if (value_.size() < need) value_.resize(need);
  if (sampled_.size() < need) sampled_.resize(need);
  if (scheme_ == Scheme::kPps && seed_.size() < need) seed_.resize(need);
  return size_++;
}

int OutcomeBatch::Append(const ObliviousOutcome& outcome) {
  PIE_CHECK(scheme_ == Scheme::kOblivious);
  PIE_CHECK(outcome.r() == r_);
  const int i = AppendRow();
  std::copy(outcome.p.begin(), outcome.p.end(), param_row(i));
  std::copy(outcome.sampled.begin(), outcome.sampled.end(), sampled_row(i));
  std::copy(outcome.value.begin(), outcome.value.end(), value_row(i));
  return i;
}

int OutcomeBatch::Append(const PpsOutcome& outcome) {
  PIE_CHECK(scheme_ == Scheme::kPps);
  PIE_CHECK(outcome.r() == r_);
  const int i = AppendRow();
  std::copy(outcome.tau.begin(), outcome.tau.end(), param_row(i));
  std::copy(outcome.seed.begin(), outcome.seed.end(), seed_row(i));
  std::copy(outcome.sampled.begin(), outcome.sampled.end(), sampled_row(i));
  std::copy(outcome.value.begin(), outcome.value.end(), value_row(i));
  return i;
}

BatchView OutcomeBatch::view() const {
  BatchView v;
  v.scheme = scheme_;
  v.r = r_;
  v.size = size_;
  v.param = param_.data();
  v.seed = scheme_ == Scheme::kPps ? seed_.data() : nullptr;
  v.sampled = sampled_.data();
  v.value = value_.data();
  return v;
}

void OutcomeBatch::ExtractRowInto(int i, Outcome* out) const {
  ExtractRow(view(), i, out);
}

void EstimateBatch(const EstimatorKernel& kernel, const OutcomeBatch& batch,
                   std::vector<double>* out) {
  PIE_CHECK(out != nullptr);
  out->clear();
  out->resize(static_cast<size_t>(batch.size()));
  kernel.EstimateMany(batch.view(), out->data());
}

double EstimateSum(const EstimatorKernel& kernel, const OutcomeBatch& batch,
                   int num_threads) {
  // The deterministic scan driver: fixed kScanChunkRows chunks, row-order
  // accumulation within a chunk, fixed-shape tree reduction across chunks.
  // The result bits depend on the chunk size only, never on num_threads.
  return ScanSum(kernel, batch.view(), num_threads);
}

EstimationEngine& EstimationEngine::Global() {
  static EstimationEngine* engine = new EstimationEngine();
  return *engine;
}

namespace {

using KeyView =
    std::tuple<int, int, int, int, int, const std::vector<double>&, double>;

}  // namespace

bool EstimationEngine::CacheKeyLess::operator()(const CacheKey& a,
                                                const CacheKey& b) const {
  return KeyView(a.function, a.scheme, a.regime, a.family, a.l, a.per_entry,
                 a.quad_tol) <
         KeyView(b.function, b.scheme, b.regime, b.family, b.l, b.per_entry,
                 b.quad_tol);
}

bool EstimationEngine::CacheKeyLess::operator()(const CacheKey& a,
                                                const CacheQuery& b) const {
  return KeyView(a.function, a.scheme, a.regime, a.family, a.l, a.per_entry,
                 a.quad_tol) <
         KeyView(static_cast<int>(b.spec->function),
                 static_cast<int>(b.spec->scheme),
                 static_cast<int>(b.spec->regime),
                 static_cast<int>(b.spec->family), b.spec->l,
                 b.params->per_entry, b.params->quad_tol);
}

bool EstimationEngine::CacheKeyLess::operator()(const CacheQuery& a,
                                                const CacheKey& b) const {
  return KeyView(static_cast<int>(a.spec->function),
                 static_cast<int>(a.spec->scheme),
                 static_cast<int>(a.spec->regime),
                 static_cast<int>(a.spec->family), a.spec->l,
                 a.params->per_entry, a.params->quad_tol) <
         KeyView(b.function, b.scheme, b.regime, b.family, b.l, b.per_entry,
                 b.quad_tol);
}

Result<KernelHandle> EstimationEngine::Kernel(const KernelSpec& spec,
                                              const SamplingParams& params) {
  // Key the cache on the canonical spec so regime aliases (oblivious
  // regimes, PPS known-seeds served by an unknown-seeds estimator) share
  // one cached kernel.
  const KernelSpec canonical = KernelRegistry::Global().CanonicalSpec(spec);
  const CacheQuery query{&canonical, &params};
  static obs::Counter& cache_hits = obs::MetricsRegistry::Global().GetCounter(
      "pie_engine_kernel_cache_total", "Engine kernel-memo lookups by result",
      {{"result", "hit"}});
  static obs::Counter& cache_misses =
      obs::MetricsRegistry::Global().GetCounter(
          "pie_engine_kernel_cache_total",
          "Engine kernel-memo lookups by result", {{"result", "miss"}});
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(query);
    if (it != cache_.end()) {
      cache_hits.Increment();
      return it->second;
    }
  }
  cache_misses.Increment();
  // Construct outside the lock: coefficient recursions can be O(r^2).
  auto created = KernelRegistry::Global().Create(canonical, params);
  if (!created.ok()) return created.status();
  KernelHandle handle(std::move(created).value());
  std::lock_guard<std::mutex> lock(mu_);
  if (static_cast<int>(cache_.size()) >= kMaxCachedKernels) {
    cache_.clear();  // outstanding KernelHandles keep their kernels alive
  }
  CacheKey key{static_cast<int>(canonical.function),
               static_cast<int>(canonical.scheme),
               static_cast<int>(canonical.regime),
               static_cast<int>(canonical.family),
               canonical.l, params.per_entry, params.quad_tol};
  auto [it, inserted] = cache_.emplace(std::move(key), handle);
  if (!inserted) handle = it->second;  // a racing creator won; share its kernel
  return handle;
}

Result<double> EstimationEngine::EstimateSum(const KernelSpec& spec,
                                             const SamplingParams& params,
                                             const OutcomeBatch& batch) {
  auto kernel = Kernel(spec, params);
  if (!kernel.ok()) return kernel.status();
  return pie::EstimateSum(**kernel, batch);
}

Status EstimationEngine::EstimateBatch(const KernelSpec& spec,
                                       const SamplingParams& params,
                                       const OutcomeBatch& batch,
                                       std::vector<double>* out) {
  auto kernel = Kernel(spec, params);
  if (!kernel.ok()) return kernel.status();
  pie::EstimateBatch(**kernel, batch, out);
  return Status::OK();
}

int EstimationEngine::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return static_cast<int>(cache_.size());
}

uint32_t EstimatorTierTag() { return 0; }

}  // namespace pie
