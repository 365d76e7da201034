// End-to-end serving benchmark: ingest -> snapshot -> four aggregates with
// error bars -> checkpoint/recover, with per-layer attribution.
//
// One process generates every input from --seed and drives the public
// APIs of store/, engine/, accuracy/ and persist/. Every run walks the
// whole serving path in three stages, always in this order:
//
//   serve_steady        one closed-loop client rotates MaxDominance,
//                       MaxDominanceAuto, MinDominanceHt, L1Distance and
//                       DistinctUnion over one unchanged snapshot;
//   ingest_refresh      closed-loop writers stream rolling periods into a
//                       store while one reader refreshes (Snapshot, then
//                       MaxDominance and L1Distance on the latest periods);
//   checkpoint_recover  cycles of UpdateBatch slice, WriteCheckpoint and
//                       RetainLatest(2), then strict Recover and
//                       MergeCheckpoints of three directories.
//
// The stages take turns in cycles of about a second; --workload names the
// stage that gets most of each cycle. The other two run a share of it, but
// never fewer than the samples their metrics need, so every run reports
// every metric. The end-to-end metrics are CPU times of the thread doing
// the work, not wall times: on a shared virtual machine wall time follows
// the other tenants' load (see Stopwatch). --trace 1 wraps each call into
// a layer in a span (span_recorder.h), adds a pass that times the layers
// below a query one by one, and reports per-layer metrics, wall times
// among them, instead of end-to-end ones. Every answer goes through a
// correctness gate; any failure makes the run exit nonzero. README.md has
// the metric table.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aggregate/sketch.h"
#include "counting_fs.h"
#include "engine/engine.h"
#include "engine/parallel_scan.h"
#include "engine/worker_pool.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/format.h"
#include "persist/gc.h"
#include "span_recorder.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "store/streaming_sketch.h"
#include "util/hashing.h"
#include "util/random.h"
#include "workload/zipf.h"

namespace perfbench {
namespace {

using pie::IntervalEstimate;
using pie::QueryService;
using pie::SketchStore;
using pie::SketchStoreOptions;
using pie::StoreSnapshot;
using pie::WeightedItem;

// Also the stage order of a cycle.
constexpr const char* kWorkloads[] = {"serve_steady", "ingest_refresh",
                                      "checkpoint_recover"};

// Thread budget (README.md): at most 4 threads on a 4-core host. Queries
// scan inline: at 2 scan threads a query waits for a second vCPU too, and
// on a 4-vCPU VM shared with busy tenants its p99 swung 3x. The worker pool is
// capped at 2 (caller + 1 worker) for the 1-vs-2-thread bitwise check and
// the dispatch probe. ingest_refresh runs 2 writers plus the reader.
constexpr const char* kPoolThreads = "2";
constexpr int kScanThreads = 1;
constexpr int kCheckThreads = 2;
constexpr int kWriters = 2;
constexpr int kShards = 8;
constexpr int kParticipants = 3;   // checkpoint directories merged
constexpr int kSlices = 9;         // disjoint ingest slices per round
constexpr int kKeep = 2;           // RetainLatest generations
constexpr int kMergesPerRound = 3;
constexpr int kSetupRepeats = 9;
constexpr int kRefreshSteps = 16;  // writer steps, and refreshes, a period
constexpr double kGateSigmas = 6.0;
constexpr double kFocusShare = 0.6;  // of each cycle, for --workload's stage
constexpr double kCycleSeconds = 1.0;
constexpr int kBlocks = 5;        // time blocks a run's timings are cut into
constexpr int kCiSalts = 8;       // sampling draws ci_rel_halfwidth averages

struct Args {
  int workload = -1;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir = ".bench_build/work";  // checkpoint directories
  std::string trace_out;  // span file of the traced run; default in work_dir
};

struct Sizes {
  int weighted_keys;      // keys per weighted instance
  int weighted_distinct;  // distinct keys over both weighted instances
  double serve_sample;    // expected sampled keys per weighted instance
  int set_universe;       // key universe of the unit-weight instances
  double set_density;     // probability a key is in one set
  double set_tau;         // uniform tau of the sets (inclusion p = 1/tau)
  int periods;            // rolling periods per ingest_refresh round
  int period_keys;        // key universe of one period
  double period_sample;   // expected sampled keys per period
  // Samples per run, at least: kBlocks blocks of 1,000, so that each
  // block's p99 has 10 samples beyond it.
  int min_queries;        // serve_steady
  int min_refreshes;      // ingest_refresh
  int min_rounds;         // checkpoint_recover rounds per run, at least
};

constexpr Sizes kFullSizes = {24500, 38000, 4000, 40000, 0.5, 4.0, 3,
                              20000, 1500,  5000, 5000,  3};
constexpr Sizes kSmokeSizes = {2000, 3100, 400, 4000, 0.5, 4.0, 3,
                               2000, 200,  20,  20,  1};

// ---------------------------------------------------------------------------
// Inputs and exact aggregates
// ---------------------------------------------------------------------------

struct PairTruth {
  double max_sum = 0.0;
  double min_sum = 0.0;
  double l1_sum = 0.0;
};

PairTruth ExactPair(const std::vector<WeightedItem>& a,
                    const std::vector<WeightedItem>& b) {
  std::unordered_map<uint64_t, std::array<double, 2>> values;
  for (const auto& item : a) values[item.key][0] = item.weight;
  for (const auto& item : b) values[item.key][1] = item.weight;
  PairTruth truth;
  for (const auto& [key, v] : values) {
    truth.max_sum += std::max(v[0], v[1]);
    truth.min_sum += std::min(v[0], v[1]);
    truth.l1_sum += std::fabs(v[0] - v[1]);
  }
  return truth;
}

double StandardNormal(pie::Rng& rng) {
  const double u1 = std::max(rng.UniformDouble(), 1e-300);
  const double u2 = rng.UniformDouble();
  return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
}

/// Multiplicative lognormal churn of a value from one period to the next.
double Churn(double value, pie::Rng& rng) {
  return std::max(1.0, std::round(value * std::exp(0.45 * StandardNormal(rng))));
}

/// Zipf values (exponent 1.05, the traffic model of workload/traffic.h)
/// with every rank used exactly once, in a seeded random key order. The
/// value multiset is the same for every seed: drawing ranks at random
/// would make the few heaviest keys -- and with them every error bar --
/// vary from seed to seed.
std::vector<double> ZipfValues(int n, double scale, pie::Rng& rng) {
  const pie::ZipfGenerator zipf(n, 1.05);
  std::vector<double> values(static_cast<size_t>(n));
  for (int rank = 1; rank <= n; ++rank) {
    values[static_cast<size_t>(rank - 1)] = zipf.ValueOfRank(rank, scale);
  }
  for (size_t i = values.size() - 1; i > 0; --i) {
    std::swap(values[i], values[rng.UniformInt(i + 1)]);
  }
  return values;
}

struct Inputs {
  // serve_steady: weighted instances 0 and 1, unit-weight instances 2-4.
  std::array<std::vector<WeightedItem>, 2> weighted;
  std::array<std::vector<WeightedItem>, 3> sets;
  SketchStoreOptions serve_options;
  PairTruth serve_truth;
  double distinct_truth = 0.0;

  // ingest_refresh: per period, each writer's records. Each writer owns
  // the keys of every kWriters-th store shard, as in an ingest tier
  // partitioned by shard: writers never wait on each other's shard
  // mutexes, only on the reader's snapshots. (Split by key instead, two
  // writers' per-record CPU time swung 2x from run to run with how the
  // host placed their vCPUs.) A round's store
  // holds 2P instances: P history periods, then P streamed ones, both made
  // of these P periods' records.
  std::vector<std::array<std::vector<WeightedItem>, kWriters>> periods;
  SketchStoreOptions refresh_options;
  PairTruth last_periods_truth;  // periods P-2 and P-1
  int64_t records_per_round = 0;  // streamed by the writers

  // checkpoint_recover: instances 0 and 1 cut into disjoint key slices.
  std::vector<std::array<std::vector<WeightedItem>, 2>> slices;
};

std::vector<WeightedItem> MakePeriod(const std::vector<double>& base,
                                     pie::Rng& rng) {
  std::vector<WeightedItem> items;
  for (size_t key = 0; key < base.size(); ++key) {
    if (rng.UniformDouble() >= 0.8) continue;  // key idle this period
    items.push_back({key, Churn(base[key], rng)});
  }
  return items;
}

bool MakeInputs(uint64_t seed, const Sizes& sizes, Inputs* in) {
  pie::Rng rng(pie::Mix64(seed ^ 0x5e75));

  // Weighted instances, two traffic hours: keys [0, n) are active in hour
  // 0 and keys [N - n, N) in hour 1; the shared keys churn between hours.
  const int n = sizes.weighted_keys;
  const int distinct = sizes.weighted_distinct;
  const std::vector<double> base = ZipfValues(distinct, 1e5, rng);
  for (int k = 0; k < distinct; ++k) {
    const auto key = static_cast<uint64_t>(k);
    const double v = std::max(1.0, std::round(base[key]));
    if (k < n) in->weighted[0].push_back({key, v});
    if (k >= distinct - n) {
      in->weighted[1].push_back({key, k < n ? Churn(v, rng) : v});
    }
  }
  SketchStoreOptions& serve = in->serve_options;
  serve.num_shards = kShards;
  serve.default_tau = sizes.set_tau;
  serve.salt = pie::Mix64(seed ^ 0x5e57e);
  for (int i = 0; i < 2; ++i) {
    auto tau = pie::FindPpsTauForExpectedSize(in->weighted[i],
                                              sizes.serve_sample);
    if (!tau.ok()) return false;
    serve.instance_tau[i] = *tau;
  }
  in->serve_truth = ExactPair(in->weighted[0], in->weighted[1]);

  // Unit-weight sets over their own key range; one uniform tau.
  std::vector<uint8_t> in_union(static_cast<size_t>(sizes.set_universe));
  for (auto& set : in->sets) {
    for (int k = 0; k < sizes.set_universe; ++k) {
      if (rng.UniformDouble() < sizes.set_density) {
        set.push_back({(1ULL << 40) + static_cast<uint64_t>(k), 1.0});
        in_union[static_cast<size_t>(k)] = 1;
      }
    }
  }
  in->distinct_truth = static_cast<double>(
      std::count(in_union.begin(), in_union.end(), uint8_t{1}));

  // Rolling periods: Zipf base rates with lognormal period-to-period churn.
  const std::vector<double> rates = ZipfValues(sizes.period_keys, 1e3, rng);
  SketchStoreOptions& refresh = in->refresh_options;
  refresh.num_shards = kShards;
  refresh.salt = pie::Mix64(seed ^ 0x7e4e);
  const SketchStore shard_map(refresh);
  std::vector<WeightedItem> prev;
  for (int p = 0; p < sizes.periods; ++p) {
    std::vector<WeightedItem> items = MakePeriod(rates, rng);
    auto tau = pie::FindPpsTauForExpectedSize(items, sizes.period_sample);
    if (!tau.ok()) return false;
    refresh.instance_tau[p] = *tau;
    refresh.instance_tau[sizes.periods + p] = *tau;
    std::array<std::vector<WeightedItem>, kWriters> split;
    for (const auto& item : items) {
      split[shard_map.ShardOf(item.key) % kWriters].push_back(item);
    }
    in->periods.push_back(std::move(split));
    in->records_per_round += static_cast<int64_t>(items.size());
    if (p == sizes.periods - 1) in->last_periods_truth = ExactPair(prev, items);
    prev = std::move(items);
  }

  // Checkpoint slices: a seeded key hash picks each key's slice, so the
  // slices are disjoint and independent of the store's shard hash.
  in->slices.resize(kSlices);
  const uint64_t slice_salt = pie::Mix64(seed ^ 0x511ce);
  for (int i = 0; i < 2; ++i) {
    for (const auto& item : in->weighted[i]) {
      in->slices[pie::HashCombine(slice_salt, item.key) % kSlices][i]
          .push_back(item);
    }
  }
  return true;
}

/// FNV-1a over raw bytes, chained.
uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t FnvItems(uint64_t h, const std::vector<WeightedItem>& items) {
  for (const auto& item : items) {
    h = Fnv(h, &item.key, sizeof item.key);
    h = Fnv(h, &item.weight, sizeof item.weight);
  }
  return h;
}

uint64_t FnvOptions(uint64_t h, const SketchStoreOptions& o) {
  h = Fnv(h, &o.salt, sizeof o.salt);
  h = Fnv(h, &o.default_tau, sizeof o.default_tau);
  for (const auto& [instance, tau] : o.instance_tau) {
    h = Fnv(h, &instance, sizeof instance);
    h = Fnv(h, &tau, sizeof tau);
  }
  return h;
}

uint64_t InputsDigest(const Inputs& in) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const auto& items : in.weighted) h = FnvItems(h, items);
  for (const auto& items : in.sets) h = FnvItems(h, items);
  for (const auto& period : in.periods) {
    for (const auto& items : period) h = FnvItems(h, items);
  }
  for (const auto& slice : in.slices) {
    for (const auto& items : slice) h = FnvItems(h, items);
  }
  h = FnvOptions(h, in.serve_options);
  return FnvOptions(h, in.refresh_options);
}

// ---------------------------------------------------------------------------
// Queries and the correctness gate
// ---------------------------------------------------------------------------

enum QueryKind { kMax, kMaxAuto, kMin, kL1, kDistinct, kNumKinds };
constexpr const char* kQuerySpans[kNumKinds] = {
    "store.query.max_dominance", "store.query.max_dominance_auto",
    "store.query.min_dominance", "store.query.l1_distance",
    "store.query.distinct_union"};

/// One served answer: every interval it returned (HT before L for the
/// dual answers) and the selector's family for the Auto query.
struct Answer {
  pie::Status status;
  std::vector<IntervalEstimate> intervals;
  int family = -1;

  /// The interval served by the L (or selector-chosen) estimator; null
  /// for MinDominanceHt, which has no L form.
  const IntervalEstimate* l_interval(QueryKind kind) const {
    if (!status.ok() || kind == kMin) return nullptr;
    return &intervals.back();
  }
};

Answer Ask(const QueryService& service, QueryKind kind, int i1, int i2) {
  Answer out;
  auto dual = [&](const pie::Result<pie::DualInterval>& r) {
    out.status = r.status();
    if (r.ok()) out.intervals = {r->ht, r->l};
  };
  auto single = [&](const pie::Result<IntervalEstimate>& r) {
    out.status = r.status();
    if (r.ok()) out.intervals = {*r};
  };
  switch (kind) {
    case kMax:
      dual(service.MaxDominance(i1, i2));
      break;
    case kMaxAuto: {
      auto r = service.MaxDominanceAuto(i1, i2);
      out.status = r.status();
      if (r.ok()) {
        out.intervals = {r->interval};
        out.family = static_cast<int>(r->spec.family);
      }
      break;
    }
    case kMin:
      single(service.MinDominanceHt(i1, i2));
      break;
    case kL1:
      single(service.L1Distance(i1, i2));
      break;
    case kDistinct:
      dual(service.DistinctUnion({2, 3, 4}));
      break;
    default:
      out.status = pie::Status::InvalidArgument("unknown query");
  }
  return out;
}

bool SameBits(const Answer& a, const Answer& b) {
  if (!a.status.ok() || !b.status.ok() || a.family != b.family ||
      a.intervals.size() != b.intervals.size()) {
    return false;
  }
  for (size_t i = 0; i < a.intervals.size(); ++i) {
    const IntervalEstimate& x = a.intervals[i];
    const IntervalEstimate& y = b.intervals[i];
    for (auto [u, v] : {std::pair{x.estimate, y.estimate},
                        {x.variance, y.variance}, {x.std_err, y.std_err},
                        {x.lo, y.lo}, {x.hi, y.hi}, {x.coverage, y.coverage}}) {
      if (std::bit_cast<uint64_t>(u) != std::bit_cast<uint64_t>(v)) {
        return false;
      }
    }
  }
  return true;
}

/// Finite, with lo <= estimate <= hi in every interval.
bool WellFormed(const Answer& a) {
  if (!a.status.ok() || a.intervals.empty()) return false;
  for (const IntervalEstimate& x : a.intervals) {
    if (!std::isfinite(x.estimate) || !std::isfinite(x.lo) ||
        !std::isfinite(x.hi) || !(x.lo <= x.estimate && x.estimate <= x.hi)) {
      return false;
    }
  }
  return true;
}

/// Every interval within kGateSigmas standard errors of the exact value
/// (exact match, to rounding, when the answer carries no error).
bool NearTruth(const Answer& a, double truth) {
  if (!WellFormed(a)) return false;
  for (const IntervalEstimate& x : a.intervals) {
    const double err = std::fabs(x.estimate - truth);
    const double slack = std::max(kGateSigmas * x.std_err,
                                  1e-9 * std::max(1.0, std::fabs(truth)));
    if (!(err <= slack)) return false;
  }
  return true;
}

double PairTruthFor(const PairTruth& t, QueryKind kind) {
  switch (kind) {
    case kMin:
      return t.min_sum;
    case kL1:
      return t.l1_sum;
    default:
      return t.max_sum;
  }
}

/// Operations attempted and failed (a failed call or an answer that
/// failed the gate); the first few failures are kept for the report. The
/// message is only assembled on failure: Record sits in timed loops.
struct Gate {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> messages;

  void Record(bool ok, std::string_view what, std::string_view detail = {}) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (messages.size() < 10) {
      messages.push_back(std::string(what).append(detail));
    }
  }
};

// ---------------------------------------------------------------------------
// Measurements
// ---------------------------------------------------------------------------

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(const std::vector<double>& v) { return Quantile(v, 0.5); }

/// The median, over kBlocks consecutive blocks of a run's samples (kept in
/// time order), of each block's q-quantile: a slow spell of the shared
/// host moves one block's figure, not the result.
double BlockQuantile(const std::vector<double>& v, double q) {
  std::vector<double> blocks;
  for (int b = 0; b < kBlocks; ++b) {
    const auto begin = v.begin() + static_cast<std::ptrdiff_t>(
                                       v.size() * b / kBlocks);
    const auto end = v.begin() + static_cast<std::ptrdiff_t>(
                                     v.size() * (b + 1) / kBlocks);
    if (begin != end) blocks.push_back(Quantile({begin, end}, q));
  }
  return Median(blocks);
}

double Ms(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

/// Wall time and the calling thread's CPU time since construction. CPU
/// time leaves out the spells the thread was not running: preempted by
/// other tenants of a shared host (steal), or blocked on a lock or the
/// disk. The end-to-end metrics report it, so that they measure the
/// program and not the host's load; wall time goes to the traced run.
struct Stopwatch {
  int64_t wall0 = NowNs();
  int64_t cpu0 = ThreadCpuNs();

  double WallS() const { return static_cast<double>(NowNs() - wall0) * 1e-9; }
  double CpuS() const {
    return static_cast<double>(ThreadCpuNs() - cpu0) * 1e-9;
  }
};

/// One operation's CPU and wall milliseconds per entry, in time order.
struct Timings {
  std::vector<double> cpu_ms;
  std::vector<double> wall_ms;

  /// `excluded_cpu_ns` of the CPU time is left out.
  void Add(const Stopwatch& sw, int64_t excluded_cpu_ns = 0) {
    cpu_ms.push_back(sw.CpuS() * 1e3 - Ms(excluded_cpu_ns));
    wall_ms.push_back(sw.WallS() * 1e3);
  }
  size_t size() const { return cpu_ms.size(); }
};

/// Work done over time, one entry per unit of work, in time order, with
/// the CPU and wall seconds it took.
struct Throughput {
  std::vector<double> work;
  std::vector<double> cpu_s;
  std::vector<double> wall_s;

  void Add(double w, double cpu, double wall) {
    work.push_back(w);
    cpu_s.push_back(cpu);
    wall_s.push_back(wall);
  }

  /// The median over kBlocks consecutive blocks of each block's work per
  /// second of `seconds` (cpu_s or wall_s; BlockQuantile's blocks, for a
  /// rate).
  double BlockRate(const std::vector<double>& seconds) const {
    std::vector<double> blocks;
    for (int b = 0; b < kBlocks; ++b) {
      double w = 0.0;
      double s = 0.0;
      for (size_t i = work.size() * b / kBlocks;
           i < work.size() * (b + 1) / kBlocks; ++i) {
        w += work[i];
        s += seconds[i];
      }
      if (s > 0.0) blocks.push_back(w / s);
    }
    return Median(blocks);
  }
};

struct Results {
  std::vector<double> setup_cpu_s, setup_wall_s;
  // serve_steady
  Timings query;
  Throughput serve;  // queries per rotation
  double ci_rel_halfwidth = 0.0;
  // ingest_refresh
  Timings refresh;
  // Records per writer round: the writers' summed CPU time in their update
  // loops; start to join in wall time.
  Throughput stream_ingest;
  int64_t refresh_rounds = 0;
  double entries_copied = 0.0;  // summed over refreshes
  // checkpoint_recover
  Throughput batch_ingest;  // records per checkpoint slice's UpdateBatch
  Timings checkpoint, recover, merge;
  std::vector<double> gc_ms;
  int64_t checkpoint_rounds = 0;
  int64_t checkpoint_entries = 0;
  int64_t files_removed = 0;
  FsCounts checkpoint_io, recover_io;
};

int64_t Entries(const StoreSnapshot& snapshot) {
  int64_t n = 0;
  for (int s = 0; s < snapshot.num_shards(); ++s) {
    for (const auto& [instance, sketch] : snapshot.Shard(s).sketches()) {
      n += sketch.size();
    }
  }
  return n;
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct World {
  Inputs inputs;
  std::unique_ptr<SketchStore> serve_store;
  std::shared_ptr<const StoreSnapshot> snapshot;
  std::array<Answer, kNumKinds> reference;  // at kScanThreads
  // Single store fed every checkpoint slice in merge-directory order.
  std::array<Answer, 2> merged_reference;   // kMax, kL1
  uint64_t inputs_digest = 0;
};

constexpr QueryKind kPersistKinds[] = {kMax, kL1};

std::array<Answer, 2> PersistAnswers(const SketchStore& store) {
  const QueryService service(store.Snapshot(), {.num_threads = kScanThreads});
  return {Ask(service, kMax, 0, 1), Ask(service, kL1, 0, 1)};
}

std::unique_ptr<SketchStore> ServeStore(const Inputs& in) {
  auto store = std::make_unique<SketchStore>(in.serve_options);
  for (int i = 0; i < 2; ++i) store->UpdateBatch(i, in.weighted[i]);
  for (int j = 0; j < 3; ++j) store->UpdateBatch(2 + j, in.sets[j]);
  return store;
}

/// Generates every input, ingests the serve store, takes its snapshot and
/// warms kernels and the selector with one query of each kind.
bool Setup(const Args& args, const Sizes& sizes, World* w) {
  if (!MakeInputs(args.seed, sizes, &w->inputs)) return false;
  const Inputs& in = w->inputs;
  w->inputs_digest = InputsDigest(in);
  w->serve_store = ServeStore(in);
  w->snapshot = w->serve_store->Snapshot();
  const QueryService service(w->snapshot, {.num_threads = kScanThreads});
  for (int k = 0; k < kNumKinds; ++k) {
    w->reference[k] = Ask(service, static_cast<QueryKind>(k), 0, 1);
  }

  SketchStore merged(in.serve_options);
  for (int j = 0; j < kParticipants; ++j) {
    for (int c = j; c < kSlices; c += kParticipants) {
      for (int i = 0; i < 2; ++i) merged.UpdateBatch(i, in.slices[c][i]);
    }
  }
  w->merged_reference = PersistAnswers(merged);
  return true;
}

uint64_t AnswersDigest(const World& w) {
  uint64_t h = 0xcbf29ce484222325ULL;
  auto add = [&h](const Answer& a) {
    h = Fnv(h, &a.family, sizeof a.family);
    for (const IntervalEstimate& x : a.intervals) {
      for (double v : {x.estimate, x.variance, x.lo, x.hi}) {
        h = Fnv(h, &v, sizeof v);
      }
    }
  };
  for (const Answer& a : w.reference) add(a);
  for (const Answer& a : w.merged_reference) add(a);
  return h;
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

struct Tracing {
  Tracer* tracer = nullptr;  // null when untraced
  ThreadSpans* main = nullptr;

  ThreadSpans* NewThread() const {
    return tracer != nullptr ? tracer->NewThread() : nullptr;
  }
  uint64_t Request() const {
    return tracer != nullptr ? tracer->NextRequest() : 0;
  }
};

/// The three stages of the serving path. Each unit call does one unit of
/// a stage's work -- a query rotation, an ingest_refresh round, a
/// checkpoint_recover round -- checks its answers and appends its samples;
/// Finish() runs the once-per-run checks.
class Stages {
 public:
  Stages(const Args& args, const World& world, const Tracing& tr, Gate* gate,
         Results* res)
      : world_(world),
        tr_(tr),
        gate_(gate),
        res_(res),
        service_(std::make_unique<QueryService>(
            world.snapshot,
            pie::QueryServiceOptions{.num_threads = kScanThreads})),
        fs_(pie::FileSystem::Default()) {
    for (auto& spans : writer_spans_) spans = tr.NewThread();
    fs_.set_spans(tr.main);
    // The untraced run counts fsyncs but skips them: a thread that sleeps
    // in fsync on a busy virtual disk resumes with cold caches, which moved
    // even the checkpoint's own CPU time by 60%. The traced run syncs and
    // reports the time (persist.fsync_ms, wall.checkpoint_p50_ms).
    fs_.set_forward_syncs(args.trace);
    checkpoint_options_.fs = &fs_;
    for (int j = 0; j < kParticipants; ++j) {
      dirs_.push_back(args.work_dir + "/checkpoint-" + std::to_string(j));
    }
  }

  /// serve_steady: a fresh store and snapshot of the same inputs, built
  /// untimed before each serve slice. The snapshot's place in memory moved
  /// a run's query times by up to 20% against runs of the same seed; with
  /// a new one every slice, a run averages over many placements. Its
  /// answers must keep the first snapshot's bits.
  void RebuildServe() {
    service_.reset();
    serve_store_ = ServeStore(world_.inputs);
    service_ = std::make_unique<QueryService>(
        serve_store_->Snapshot(),
        pie::QueryServiceOptions{.num_threads = kScanThreads});
  }

  /// serve_steady: one closed-loop client, each kind once, on the
  /// unchanged snapshot; every answer must repeat the first one's bits.
  void ServeRotation() {
    const Stopwatch rotation;
    for (int k = 0; k < kNumKinds; ++k) {
      const Stopwatch sw;
      Answer answer;
      {
        ScopedSpan span(tr_.main, kQuerySpans[k], tr_.Request());
        answer = Ask(*service_, static_cast<QueryKind>(k), 0, 1);
      }
      res_->query.Add(sw);
      gate_->Record(SameBits(answer, world_.reference[k]), kQuerySpans[k],
                    ": answer differs from the first one on the same "
                    "snapshot");
    }
    res_->serve.Add(kNumKinds, rotation.CpuS(), rotation.WallS());
  }

  /// ingest_refresh: a fresh store gets P history periods by UpdateBatch
  /// (untimed); then writers stream P more periods into it, in
  /// kRefreshSteps steps a period, while this thread refreshes (Snapshot,
  /// MaxDominance, L1Distance on the two latest periods). Each refresh
  /// releases the writers into the next step and snapshots beside them, so
  /// every round refreshes the same store states. (Free-running, a refresh
  /// saw whatever the writers had streamed by then, and how that fell
  /// moved the refresh median by 30% from run to run.) The history keeps
  /// every refresh's snapshot within 2x of any other's size, so refresh
  /// latencies do not spread from near zero on an empty store.
  void RefreshRound() {
    const Inputs& in = world_.inputs;
    const int periods = static_cast<int>(in.periods.size());
    SketchStore store(in.refresh_options);
    for (int h = 0; h < periods; ++h) {
      for (const auto& items : in.periods[h]) store.UpdateBatch(h, items);
    }
    std::vector<uint64_t> versions(kShards);
    {
      const auto history = store.Snapshot();
      for (int s = 0; s < kShards; ++s) {
        versions[s] = history->Shard(s).version();
      }
    }
    const int steps = periods * kRefreshSteps;
    std::atomic<int> released{0};  // steps the writers may stream
    std::array<std::atomic<int>, kWriters> streamed{};  // steps done
    std::array<double, kWriters> writer_cpu_s{};
    const Stopwatch round;
    std::vector<std::jthread> writers;  // joined on every exit path
    for (int wr = 0; wr < kWriters; ++wr) {
      writers.emplace_back([&, wr] {
        for (int step = 0; step < steps; ++step) {
          for (int r = released.load(std::memory_order_acquire); r <= step;
               r = released.load(std::memory_order_acquire)) {
            released.wait(r, std::memory_order_acquire);
          }
          const int p = step / kRefreshSteps;
          const std::vector<WeightedItem>& items = in.periods[p][wr];
          const size_t b = items.size() * (step % kRefreshSteps) /
                           kRefreshSteps;
          const size_t e = items.size() * (step % kRefreshSteps + 1) /
                           kRefreshSteps;
          {
            // CPU time of the updates alone, without the waits between
            // steps.
            const Stopwatch updates;
            ScopedSpan span(writer_spans_[wr], "store.update", tr_.Request());
            for (size_t i = b; i < e; ++i) {
              store.Update(periods + p, items[i].key, items[i].weight);
            }
            span.set_items(static_cast<int64_t>(e - b));
            writer_cpu_s[wr] += updates.CpuS();
          }
          streamed[wr].store(step + 1, std::memory_order_release);
          streamed[wr].notify_one();
        }
      });
    }
    // Destroyed before `writers` joins: releases every step on any way
    // out, so that no writer waits forever.
    struct ReleaseAll {
      std::atomic<int>& released;
      int steps;
      ~ReleaseAll() {
        released.store(steps, std::memory_order_release);
        released.notify_all();
      }
    } release_all{released, steps};

    for (int step = 0; step < steps; ++step) {
      // Every writer has streamed the steps before this one.
      for (auto& done : streamed) {
        for (int d = done.load(std::memory_order_acquire); d < step;
             d = done.load(std::memory_order_acquire)) {
          done.wait(d, std::memory_order_acquire);
        }
      }
      released.store(step + 1, std::memory_order_release);
      released.notify_all();
      const int p2 = periods + step / kRefreshSteps;
      ScopedSpan refresh(tr_.main, "bench.refresh", tr_.Request());
      const Stopwatch sw;
      std::shared_ptr<const StoreSnapshot> snapshot;
      int64_t copied = 0;
      {
        // Dirty shards are the ones whose version moved since the last
        // refresh; the snapshot copied their sketches.
        ScopedSpan span(tr_.main, "store.snapshot.dirty");
        snapshot = store.Snapshot();
        int dirty = 0;
        for (int s = 0; s < kShards; ++s) {
          const pie::ShardSnapshot& shard = snapshot->Shard(s);
          if (shard.version() == versions[s]) continue;
          versions[s] = shard.version();
          ++dirty;
          for (const auto& [instance, sketch] : shard.sketches()) {
            copied += sketch.size();
          }
        }
        // Before the first step lands nothing is dirty; such a snapshot is
        // kept out of both the dirty figures and the attribution's clean
        // ones.
        if (dirty == 0) span.set_name("store.snapshot.refresh_unchanged");
        span.set_items(dirty);
      }
      const QueryService service(snapshot, {.num_threads = kScanThreads});
      Answer max;
      Answer l1;
      {
        ScopedSpan span(tr_.main, "store.query.refresh_max_dominance");
        max = Ask(service, kMax, p2 - 1, p2);
      }
      {
        ScopedSpan span(tr_.main, "store.query.refresh_l1_distance");
        l1 = Ask(service, kL1, p2 - 1, p2);
      }
      res_->refresh.Add(sw);
      res_->entries_copied += static_cast<double>(copied);
      gate_->Record(WellFormed(max) && WellFormed(l1),
                    "refresh: mid-stream answer not finite or outside its "
                    "interval");
    }
    for (auto& t : writers) t.join();
    double writers_cpu_s = 0.0;
    for (double cpu : writer_cpu_s) writers_cpu_s += cpu;
    res_->stream_ingest.Add(static_cast<double>(in.records_per_round),
                            writers_cpu_s, round.WallS());
    ++res_->refresh_rounds;

    // The final snapshot holds every record of the round.
    const QueryService service(store.Snapshot(), {.num_threads = kScanThreads});
    for (QueryKind kind : kPersistKinds) {
      gate_->Record(NearTruth(Ask(service, kind, 2 * periods - 2,
                                  2 * periods - 1),
                              PairTruthFor(in.last_periods_truth, kind)),
                    std::string(kQuerySpans[kind]) +
                        ": final refresh answer is not within 6 standard "
                        "errors of the exact aggregate");
    }
  }

  /// checkpoint_recover: each participant directory ingests its slices,
  /// checkpointing and retaining 2 generations after each; then every
  /// directory is recovered and all of them merged.
  void CheckpointRound() {
    const Inputs& in = world_.inputs;
    std::array<std::unique_ptr<SketchStore>, kParticipants> stores;
    for (int j = 0; j < kParticipants; ++j) {
      std::error_code ec;
      std::filesystem::remove_all(dirs_[j], ec);
      stores[j] = std::make_unique<SketchStore>(in.serve_options);
    }
    for (int c = 0; c < kSlices; ++c) {
      const int j = c % kParticipants;
      ScopedSpan cycle(tr_.main, "bench.checkpoint_cycle", tr_.Request());
      const auto records = static_cast<int64_t>(in.slices[c][0].size() +
                                                in.slices[c][1].size());
      const Stopwatch slice;
      {
        ScopedSpan span(tr_.main, "store.update_batch");
        for (int i = 0; i < 2; ++i) stores[j]->UpdateBatch(i, in.slices[c][i]);
        span.set_items(records);
      }
      res_->batch_ingest.Add(static_cast<double>(records), slice.CpuS(),
                             slice.WallS());

      std::shared_ptr<const StoreSnapshot> snapshot;
      {
        ScopedSpan span(tr_.main, "store.snapshot.for_checkpoint");
        snapshot = stores[j]->Snapshot();
      }
      const FsCounts before = fs_.counts();
      const Stopwatch write;
      pie::Status status;
      {
        ScopedSpan span(tr_.main, "persist.write_checkpoint");
        status = pie::persist::WriteCheckpoint(*snapshot, dirs_[j],
                                               checkpoint_options_);
      }
      const FsCounts io = fs_.counts() - before;
      res_->checkpoint.Add(write, io.cpu_ns);
      res_->checkpoint_io += io;
      res_->checkpoint_entries += Entries(*snapshot);
      gate_->Record(status.ok(), "WriteCheckpoint: " + status.ToString());

      const int64_t gc_start = NowNs();
      pie::Result<pie::persist::GcResult> gc = pie::Status::Internal("unset");
      {
        ScopedSpan span(tr_.main, "persist.retain_latest");
        gc = pie::persist::RetainLatest(dirs_[j], kKeep, {.fs = &fs_});
      }
      res_->gc_ms.push_back(Ms(NowNs() - gc_start));
      if (gc.ok()) {
        res_->files_removed += static_cast<int64_t>(gc->files_removed);
      }
      gate_->Record(gc.ok(), "RetainLatest: " + gc.status().ToString());
    }

    for (int j = 0; j < kParticipants; ++j) {
      const FsCounts before = fs_.counts();
      const Stopwatch sw;
      pie::Result<std::unique_ptr<SketchStore>> recovered =
          pie::Status::Internal("unset");
      {
        ScopedSpan span(tr_.main, "persist.recover", tr_.Request());
        recovered = SketchStore::Recover(
            dirs_[j], {.policy = pie::RecoverPolicy::kStrict, .fs = &fs_});
      }
      res_->recover.Add(sw);
      res_->recover_io += fs_.counts() - before;
      bool same = recovered.ok();
      if (same) {
        const auto got = PersistAnswers(**recovered);
        const auto want = PersistAnswers(*stores[j]);
        same = SameBits(got[0], want[0]) && SameBits(got[1], want[1]);
      }
      gate_->Record(same, "Recover: recovered store does not re-answer "
                          "bitwise like its source (" +
                              recovered.status().ToString() + ")");
    }

    for (int m = 0; m < kMergesPerRound; ++m) {
      const Stopwatch sw;
      pie::Result<std::unique_ptr<SketchStore>> merged =
          pie::Status::Internal("unset");
      {
        ScopedSpan span(tr_.main, "persist.merge", tr_.Request());
        merged = SketchStore::MergeCheckpoints(dirs_);
      }
      res_->merge.Add(sw);
      bool same = merged.ok();
      if (same) {
        const auto got = PersistAnswers(**merged);
        same = SameBits(got[0], world_.merged_reference[0]) &&
               SameBits(got[1], world_.merged_reference[1]);
      }
      gate_->Record(same, "MergeCheckpoints: merged store does not re-answer "
                          "bitwise like a single store (" +
                              merged.status().ToString() + ")");
    }
    ++res_->checkpoint_rounds;
  }

  /// The accuracy users get: the mean relative half-width of the served L
  /// intervals, averaged over kCiSalts independent sampling draws of the
  /// serve data (the first is the serve store's own), so that it does not
  /// hang on one draw's luck. Each draw's answers pass the truth gate too.
  double MeanRelativeHalfwidth() {
    const Inputs& in = world_.inputs;
    double sum = 0.0;
    int count = 0;
    for (int draw = 0; draw < kCiSalts; ++draw) {
      SketchStoreOptions options = in.serve_options;
      options.salt = pie::Mix64(options.salt + static_cast<uint64_t>(draw));
      if (draw == 0) options.salt = in.serve_options.salt;
      SketchStore store(options);
      for (int i = 0; i < 2; ++i) store.UpdateBatch(i, in.weighted[i]);
      for (int j = 0; j < 3; ++j) store.UpdateBatch(2 + j, in.sets[j]);
      const QueryService service(store.Snapshot(),
                                 {.num_threads = kScanThreads});
      for (int k = 0; k < kNumKinds; ++k) {
        const auto kind = static_cast<QueryKind>(k);
        const Answer answer = Ask(service, kind, 0, 1);
        const double truth = kind == kDistinct
                                 ? in.distinct_truth
                                 : PairTruthFor(in.serve_truth, kind);
        gate_->Record(NearTruth(answer, truth),
                      std::string(kQuerySpans[k]) +
                          ": answer of another sampling draw is not within 6 "
                          "standard errors of the exact aggregate");
        if (const IntervalEstimate* l = answer.l_interval(kind)) {
          sum += (l->hi - l->lo) / 2.0 / std::fabs(l->estimate);
          ++count;
        }
      }
    }
    return sum / count;
  }

  void Finish() {
    // serve_steady: the same bits at kCheckThreads scan threads, and every
    // answer near the exact aggregate.
    const QueryService parallel(world_.snapshot,
                                {.num_threads = kCheckThreads});
    for (int k = 0; k < kNumKinds; ++k) {
      const auto kind = static_cast<QueryKind>(k);
      const Answer& ref = world_.reference[k];
      gate_->Record(SameBits(Ask(parallel, kind, 0, 1), ref),
                    std::string(kQuerySpans[k]) +
                        ": answer differs between 1 and 2 scan threads");
      const double truth = kind == kDistinct
                               ? world_.inputs.distinct_truth
                               : PairTruthFor(world_.inputs.serve_truth, kind);
      gate_->Record(NearTruth(ref, truth),
                    std::string(kQuerySpans[k]) +
                        ": answer is not within 6 standard errors of the "
                        "exact aggregate");
    }
    res_->ci_rel_halfwidth = MeanRelativeHalfwidth();

    // checkpoint_recover: merged stores re-answer like the reference
    // (checked every merge), so one truth check on it covers them all.
    for (int k = 0; k < 2; ++k) {
      const QueryKind kind = kPersistKinds[k];
      gate_->Record(NearTruth(world_.merged_reference[k],
                              PairTruthFor(world_.inputs.serve_truth, kind)),
                    std::string(kQuerySpans[kind]) +
                        ": merged answer is not within 6 standard errors of "
                        "the exact aggregate");
    }
    for (const std::string& dir : dirs_) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }

 private:
  const World& world_;
  const Tracing& tr_;
  Gate* gate_;
  Results* res_;
  std::unique_ptr<SketchStore> serve_store_;
  std::unique_ptr<const QueryService> service_;
  std::array<ThreadSpans*, kWriters> writer_spans_{};
  CountingFs fs_;
  pie::persist::CheckpointOptions checkpoint_options_;
  std::vector<std::string> dirs_;
};

/// Runs the stages in cycles of about kCycleSeconds, so that slow spells
/// of a shared host hit every stage alike; --workload's stage gets
/// kFocusShare of each cycle and the other two split the rest. Each slice
/// runs whole units, at least one. Stages still short of the samples their
/// metrics need run on after the last cycle.
void RunSchedule(const Args& args, const Sizes& sizes, Stages* stages,
                 const Results& res) {
  auto run_unit = [stages](int stage) {
    switch (stage) {
      case 0:
        stages->ServeRotation();
        break;
      case 1:
        stages->RefreshRound();
        break;
      default:
        stages->CheckpointRound();
    }
  };
  const int cycles =
      std::max(1, static_cast<int>(std::lround(args.seconds / kCycleSeconds)));
  const double cycle_ns = args.seconds / cycles * 1e9;
  for (int c = 0; c < cycles; ++c) {
    for (int stage = 0; stage < 3; ++stage) {
      const double share =
          stage == args.workload ? kFocusShare : (1.0 - kFocusShare) / 2.0;
      const int64_t end = NowNs() + static_cast<int64_t>(share * cycle_ns);
      if (stage == 0) stages->RebuildServe();
      do {
        run_unit(stage);
      } while (NowNs() < end);
    }
  }
  while (static_cast<int>(res.query.size()) < sizes.min_queries) {
    stages->ServeRotation();
  }
  while (static_cast<int>(res.refresh.size()) < sizes.min_refreshes) {
    stages->RefreshRound();
  }
  while (res.checkpoint_rounds < sizes.min_rounds) stages->CheckpointRound();
  stages->Finish();
}

// ---------------------------------------------------------------------------
// Traced run: the layers below one MaxDominance query, one call at a time
// ---------------------------------------------------------------------------

struct Attribution {
  int64_t union_rows = 0;
  double accept_ratio = 0.0;
  double overhead_untraced_ms = 0.0;  // serve query p50, interleaved
  double overhead_traced_ms = 0.0;
};

constexpr int kAttributionReps = 20;
constexpr int kMicroCalls = 1000;

/// Re-does what MaxDominance(0, 1) does, layer by layer, from outside:
/// hash Lookup and seed hashing to build the union rows (store), the HT
/// and L kernel scans (engine), the accumulator and interval (accuracy),
/// plus kernel-cache, selector-cache and pool-dispatch hits, a clean
/// snapshot, sampler updates and shard-file encode/decode.
void AttributionPass(const World& w, const Tracing& tr, Gate* gate,
                     Attribution* out) {
  const StoreSnapshot& snapshot = *w.snapshot;
  const double tau1 = snapshot.TauFor(0);
  const double tau2 = snapshot.TauFor(1);
  const pie::SeedFunction seed1(snapshot.InstanceSalt(0));
  const pie::SeedFunction seed2(snapshot.InstanceSalt(1));
  const pie::SamplingParams params({tau1, tau2});
  const pie::KernelSpec ht_spec{pie::Function::kMax, pie::Scheme::kPps,
                                pie::Regime::kKnownSeeds, pie::Family::kHt};
  const pie::KernelSpec l_spec{pie::Function::kMax, pie::Scheme::kPps,
                               pie::Regime::kKnownSeeds, pie::Family::kL};
  auto& engine = pie::EstimationEngine::Global();
  const pie::KernelHandle ht = engine.Kernel(ht_spec, params).value();
  const pie::KernelHandle l = engine.Kernel(l_spec, params).value();

  // Union keys per shard in the store's row order: s1's arrival order,
  // then s2's keys s1 lacks.
  std::vector<std::vector<uint64_t>> keys(kShards);
  for (int s = 0; s < kShards; ++s) {
    const pie::StreamingPpsSketch* s1 = snapshot.Shard(s).Instance(0);
    const pie::StreamingPpsSketch* s2 = snapshot.Shard(s).Instance(1);
    if (s1 != nullptr) {
      for (const auto& e : s1->entries()) keys[s].push_back(e.key);
    }
    if (s2 != nullptr) {
      for (const auto& e : s2->entries()) {
        if (s1 == nullptr || !s1->Lookup(e.key, nullptr)) {
          keys[s].push_back(e.key);
        }
      }
    }
    out->union_rows += static_cast<int64_t>(keys[s].size());
  }

  // Union rows built once, in the store's slab layout.
  std::vector<pie::OutcomeBatch> batches(kShards);
  for (int s = 0; s < kShards; ++s) {
    const pie::StreamingPpsSketch* sk[2] = {snapshot.Shard(s).Instance(0),
                                            snapshot.Shard(s).Instance(1)};
    pie::OutcomeBatch& batch = batches[s];
    batch.Reset(pie::Scheme::kPps, 2);
    for (uint64_t key : keys[s]) {
      const int i = batch.AppendRow();
      batch.param_row(i)[0] = tau1;
      batch.param_row(i)[1] = tau2;
      batch.seed_row(i)[0] = seed1(key);
      batch.seed_row(i)[1] = seed2(key);
      for (int j = 0; j < 2; ++j) {
        double v = 0.0;
        const bool in = sk[j] != nullptr && sk[j]->Lookup(key, &v);
        batch.sampled_row(i)[j] = in ? 1 : 0;
        batch.value_row(i)[j] = in ? v : 0.0;
      }
    }
  }

  // Each part runs once untimed, then kAttributionReps times back to back
  // under its span, so every part is timed warm, as in the serve loop.
  ScopedSpan root(tr.main, "bench.attribution", tr.Request());
  double sink = 0.0;
  auto measure = [&](const char* name, int64_t items, const auto& part) {
    part();
    for (int rep = 0; rep < kAttributionReps; ++rep) {
      ScopedSpan span(tr.main, name);
      part();
      span.set_items(items);
    }
  };
  const QueryService service(w.snapshot, {.num_threads = kScanThreads});
  measure("store.query.max_dominance_attributed", out->union_rows, [&] {
    sink += Ask(service, kMax, 0, 1).intervals.size();
  });
  measure("store.lookup", 2 * out->union_rows, [&] {
    for (int s = 0; s < kShards; ++s) {
      const pie::StreamingPpsSketch* s1 = snapshot.Shard(s).Instance(0);
      const pie::StreamingPpsSketch* s2 = snapshot.Shard(s).Instance(1);
      for (uint64_t key : keys[s]) {
        double v = 0.0;
        if (s1 != nullptr && s1->Lookup(key, &v)) sink += v;
        if (s2 != nullptr && s2->Lookup(key, &v)) sink += v;
      }
    }
  });
  measure("store.seed_hash", 2 * out->union_rows, [&] {
    for (const auto& shard_keys : keys) {
      for (uint64_t key : shard_keys) sink += seed1(key) + seed2(key);
    }
  });
  // Shard by shard at the query's thread count, as the store scans.
  const pie::ScanOptions scan_options{.num_threads = kScanThreads,
                                      .with_variance = true};
  measure("engine.scan", out->union_rows, [&] {
    for (const pie::OutcomeBatch& batch : batches) {
      sink += pie::ScanBatch(*ht, batch.view(), scan_options).sum +
              pie::ScanBatch(*l, batch.view(), scan_options).sum;
    }
  });
  pie::AccuracyAccumulator acc_ht;
  pie::AccuracyAccumulator acc_l;
  measure("accuracy.add_batch", out->union_rows, [&] {
    acc_ht = {};
    acc_l = {};
    for (const pie::OutcomeBatch& batch : batches) {
      pie::AccuracyAccumulator shard_ht;
      pie::AccuracyAccumulator shard_l;
      shard_ht.AddBatch(*ht, batch, kScanThreads);
      shard_l.AddBatch(*l, batch, kScanThreads);
      acc_ht.Merge(shard_ht);
      acc_l.Merge(shard_l);
    }
  });
  // The rebuilt scan must reproduce the served answer's bits.
  const Answer& ref = w.reference[kMax];
  gate->Record(ref.status.ok() &&
                   std::bit_cast<uint64_t>(acc_ht.Interval().estimate) ==
                       std::bit_cast<uint64_t>(ref.intervals[0].estimate) &&
                   std::bit_cast<uint64_t>(acc_l.Interval().estimate) ==
                       std::bit_cast<uint64_t>(ref.intervals[1].estimate),
               "attribution: rebuilt union scan differs from MaxDominance");
  measure("accuracy.interval", kMicroCalls, [&] {
    for (int i = 0; i < kMicroCalls; ++i) sink += acc_l.Interval().hi;
  });
  measure("engine.kernel", kMicroCalls, [&] {
    for (int i = 0; i < kMicroCalls; ++i) {
      sink += engine.Kernel(l_spec, params).ok() ? 1.0 : 0.0;
    }
  });
  measure("accuracy.selector_choose", kMicroCalls, [&] {
    for (int i = 0; i < kMicroCalls; ++i) {
      sink += pie::SelectorCache::Global()
                      .Choose(pie::Function::kMax, pie::Scheme::kPps,
                              pie::Regime::kKnownSeeds, params)
                      .ok()
                  ? 1.0
                  : 0.0;
    }
  });
  constexpr int kDispatches = 100;
  measure("engine.parallel_for", kDispatches, [&] {
    for (int i = 0; i < kDispatches; ++i) {
      pie::WorkerPool::Global().ParallelFor(kShards, kCheckThreads,
                                            [](int) {});
    }
  });
  constexpr int kSnapshots = 100;
  measure("store.snapshot.clean", kSnapshots, [&] {
    for (int i = 0; i < kSnapshots; ++i) {
      sink += w.serve_store->Snapshot()->num_shards();
    }
  });
  const auto& records = w.inputs.weighted[0];
  measure("sampling.update", static_cast<int64_t>(records.size()), [&] {
    pie::StreamingPpsSketch sketch(tau1, snapshot.InstanceSalt(0));
    for (const auto& item : records) sketch.Update(item.key, item.weight);
    out->accept_ratio = static_cast<double>(sketch.size()) /
                        static_cast<double>(records.size());
  });
  std::vector<std::string> files(kShards);
  int64_t file_bytes = 0;
  for (int s = 0; s < kShards; ++s) {
    files[s] = pie::persist::EncodeShardFile(pie::EstimatorTierTag(),
                                             static_cast<uint32_t>(s), kShards,
                                             snapshot.Shard(s).sketches());
    file_bytes += static_cast<int64_t>(files[s].size());
  }
  measure("persist.encode_shard", file_bytes, [&] {
    for (int s = 0; s < kShards; ++s) {
      sink += static_cast<double>(
          pie::persist::EncodeShardFile(pie::EstimatorTierTag(),
                                        static_cast<uint32_t>(s), kShards,
                                        snapshot.Shard(s).sketches())
              .size());
    }
  });
  bool decoded = true;
  measure("persist.decode_shard", file_bytes, [&] {
    for (const std::string& file : files) {
      decoded = pie::persist::DecodeShardFile(file).ok() && decoded;
    }
  });
  gate->Record(decoded, "DecodeShardFile failed on a freshly encoded file");
  // Uses the timed loops' results, so the compiler keeps the loops.
  if (!std::isfinite(sink)) std::fprintf(stderr, "sink %g\n", sink);

  // Tracing overhead: serve queries with and without spans, interleaved
  // rotation by rotation so drift hits both sides alike.
  std::vector<double> traced;
  std::vector<double> untraced;
  for (int rep = 0; rep < 2 * kAttributionReps; ++rep) {
    ThreadSpans* spans = rep % 2 == 0 ? tr.main : nullptr;
    for (int k = 0; k < kNumKinds; ++k) {
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(spans, "bench.overhead_probe", tr.Request());
        sink += Ask(service, static_cast<QueryKind>(k), 0, 1).intervals.size();
      }
      (spans != nullptr ? traced : untraced).push_back(Ms(NowNs() - t0));
    }
  }
  out->overhead_traced_ms = Median(traced);
  out->overhead_untraced_ms = Median(untraced);
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void PrintTiming(const char* what, const Timings& t) {
  const auto block = static_cast<int64_t>(t.size()) / kBlocks;
  std::printf("# %-10s n=%zu in %d blocks  cpu p50=%.4f ms  p99=%.4f ms  "
              "wall p50=%.4f ms  p99=%.4f ms  (%lld samples above p99 per "
              "block)\n",
              what, t.size(), kBlocks, BlockQuantile(t.cpu_ms, 0.5),
              BlockQuantile(t.cpu_ms, 0.99), BlockQuantile(t.wall_ms, 0.5),
              BlockQuantile(t.wall_ms, 0.99),
              static_cast<long long>(
                  block - static_cast<int64_t>(std::ceil(0.99 * block))));
}

/// Every timing and rate here is in CPU time (Stopwatch); the traced run
/// reports the wall-time figures as wall.* metrics. Checkpoints leave out
/// the CPU time inside filesystem calls (CountingFs): on a virtual disk it
/// follows the host's I/O load, and the fsyncs the untraced run skips are
/// counted instead.
std::vector<Metric> EndToEndMetrics(const Results& r) {
  const auto checkpoints = static_cast<double>(r.checkpoint.size());
  return {
      {"setup_s", Median(r.setup_cpu_s), "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"queries_per_cpu_s", r.serve.BlockRate(r.serve.cpu_s), "1/s"},
      {"query_cpu_p50_ms", BlockQuantile(r.query.cpu_ms, 0.5), "ms"},
      {"query_cpu_p99_ms", BlockQuantile(r.query.cpu_ms, 0.99), "ms"},
      {"stream_records_per_cpu_s",
       r.stream_ingest.BlockRate(r.stream_ingest.cpu_s), "records/s"},
      {"batch_records_per_cpu_s",
       r.batch_ingest.BlockRate(r.batch_ingest.cpu_s), "records/s"},
      {"refresh_cpu_p50_ms", BlockQuantile(r.refresh.cpu_ms, 0.5), "ms"},
      {"refresh_cpu_p99_ms", BlockQuantile(r.refresh.cpu_ms, 0.99), "ms"},
      {"checkpoint_cpu_ex_io_p50_ms", BlockQuantile(r.checkpoint.cpu_ms, 0.5),
       "ms"},
      {"checkpoint_fsyncs",
       static_cast<double>(r.checkpoint_io.fsyncs) / checkpoints, "count"},
      {"recover_cpu_p50_ms", BlockQuantile(r.recover.cpu_ms, 0.5), "ms"},
      {"merge_cpu_p50_ms", BlockQuantile(r.merge.cpu_ms, 0.5), "ms"},
      {"checkpoint_bytes_per_key",
       static_cast<double>(r.checkpoint_io.bytes_written) /
           static_cast<double>(r.checkpoint_entries),
       "B"},
      {"ci_rel_halfwidth", r.ci_rel_halfwidth, "ratio"},
  };
}

/// The end-to-end timings in wall time: what a caller waits, host load,
/// lock waits, filesystem calls and (traced run only) fsyncs included.
/// Too noisy on a shared host to bound.
std::vector<Metric> WallMetrics(const Results& r) {
  return {
      {"wall.setup_s", Median(r.setup_wall_s), "s"},
      {"wall.queries_per_s", r.serve.BlockRate(r.serve.wall_s), "1/s"},
      {"wall.query_p50_ms", BlockQuantile(r.query.wall_ms, 0.5), "ms"},
      {"wall.query_p99_ms", BlockQuantile(r.query.wall_ms, 0.99), "ms"},
      {"wall.stream_records_per_s",
       r.stream_ingest.BlockRate(r.stream_ingest.wall_s), "records/s"},
      {"wall.batch_records_per_s",
       r.batch_ingest.BlockRate(r.batch_ingest.wall_s), "records/s"},
      {"wall.refresh_p50_ms", BlockQuantile(r.refresh.wall_ms, 0.5), "ms"},
      {"wall.refresh_p99_ms", BlockQuantile(r.refresh.wall_ms, 0.99), "ms"},
      {"wall.checkpoint_p50_ms", BlockQuantile(r.checkpoint.wall_ms, 0.5),
       "ms"},
      {"wall.recover_p50_ms", BlockQuantile(r.recover.wall_ms, 0.5), "ms"},
      {"wall.merge_p50_ms", BlockQuantile(r.merge.wall_ms, 0.5), "ms"},
  };
}

std::vector<Metric> PerLayerMetrics(const Results& r, const Tracer& tracer,
                                    const Attribution& a,
                                    double retries_delta) {
  const std::map<std::string, SpanStats> spans = tracer.ByName();
  auto stats = [&spans](const char* name) -> const SpanStats& {
    static const SpanStats kEmpty;
    auto it = spans.find(name);
    return it == spans.end() ? kEmpty : it->second;
  };
  // Mean nanoseconds per counted item of a span.
  auto ns_per_item = [&](const char* name) {
    const SpanStats& s = stats(name);
    return static_cast<double>(s.total_ns) / static_cast<double>(s.items);
  };
  // Items per second across all spans of a name.
  auto items_per_s = [&](const char* name) {
    const SpanStats& s = stats(name);
    return static_cast<double>(s.items) /
           (static_cast<double>(s.total_ns) * 1e-9);
  };
  auto median_us = [&](const char* name) {
    const SpanStats& s = stats(name);
    std::vector<double> us(s.durations_ns.begin(), s.durations_ns.end());
    return Median(us) * 1e-3;
  };
  const SpanStats& dirty = stats("store.snapshot.dirty");
  const auto checkpoints = static_cast<double>(r.checkpoint.size());

  return {
      {"sampling.update_ns", ns_per_item("sampling.update"), "ns"},
      {"sampling.accept_ratio", a.accept_ratio, "ratio"},
      {"store.update_ns", ns_per_item("store.update"), "ns"},
      {"store.update_batch_ns", ns_per_item("store.update_batch"), "ns"},
      {"store.snapshot_clean_us", ns_per_item("store.snapshot.clean") * 1e-3,
       "us"},
      {"store.snapshot_dirty_us", median_us("store.snapshot.dirty"), "us"},
      {"store.snapshot_dirty_shards",
       static_cast<double>(dirty.items) / static_cast<double>(dirty.count),
       "count"},
      {"store.snapshot_entries_copied",
       r.entries_copied / static_cast<double>(r.refresh.size()), "count"},
      {"store.query.max_dominance_us", median_us(kQuerySpans[kMax]), "us"},
      {"store.query.max_dominance_auto_us",
       median_us(kQuerySpans[kMaxAuto]), "us"},
      {"store.query.min_dominance_us", median_us(kQuerySpans[kMin]), "us"},
      {"store.query.l1_distance_us", median_us(kQuerySpans[kL1]), "us"},
      {"store.query.distinct_union_us", median_us(kQuerySpans[kDistinct]),
       "us"},
      {"store.union_rows", static_cast<double>(a.union_rows), "count"},
      {"store.query_keys_per_s",
       items_per_s("store.query.max_dominance_attributed"), "keys/s"},
      {"store.lookup_ns", ns_per_item("store.lookup"), "ns"},
      {"store.seed_hash_ns", ns_per_item("store.seed_hash"), "ns"},
      {"store.kernel_share",
       static_cast<double>(stats("engine.scan").total_ns) /
           static_cast<double>(
               stats("store.query.max_dominance_attributed").total_ns),
       "ratio"},
      {"engine.scan_keys_per_s", items_per_s("engine.scan"), "keys/s"},
      {"engine.kernel_lookup_ns", ns_per_item("engine.kernel"), "ns"},
      {"engine.pool_dispatch_us", ns_per_item("engine.parallel_for") * 1e-3,
       "us"},
      {"accuracy.add_batch_keys_per_s", items_per_s("accuracy.add_batch"),
       "keys/s"},
      {"accuracy.interval_ns", ns_per_item("accuracy.interval"), "ns"},
      {"accuracy.selector_hit_ns", ns_per_item("accuracy.selector_choose"),
       "ns"},
      {"persist.encode_mb_per_s", items_per_s("persist.encode_shard") * 1e-6,
       "MB/s"},
      {"persist.decode_mb_per_s", items_per_s("persist.decode_shard") * 1e-6,
       "MB/s"},
      {"persist.bytes_written",
       static_cast<double>(r.checkpoint_io.bytes_written) / checkpoints,
       "B/ckpt"},
      {"persist.fsyncs", static_cast<double>(r.checkpoint_io.fsyncs) / checkpoints,
       "count/ckpt"},
      {"persist.fsync_ms", Ms(r.checkpoint_io.fsync_ns) / checkpoints,
       "ms/ckpt"},
      {"persist.append_ms", Ms(r.checkpoint_io.append_ns) / checkpoints,
       "ms/ckpt"},
      {"persist.read_ms",
       Ms(r.recover_io.read_ns) / static_cast<double>(r.recover.size()),
       "ms/recover"},
      {"persist.gc_ms", Median(r.gc_ms), "ms"},
      {"persist.files_removed",
       static_cast<double>(r.files_removed) /
           static_cast<double>(r.gc_ms.size()),
       "count/gc"},
      {"persist.retries", retries_delta, "count"},
  };
}

// Layers whose self time the traced run reports, in call-stack order.
constexpr const char* kLayers[] = {"bench",  "sampling", "store", "engine",
                                   "accuracy", "persist",  "fs"};

double RetriesTotal() {
  return pie::obs::MetricsRegistry::Global().Snapshot().SumValues(
      "pie_persist_retries_total");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      for (int k = 0; k < 3; ++k) {
        if (value == kWorkloads[k]) args->workload = k;
      }
      if (args->workload < 0) return false;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (end == value.c_str() || *end != '\0') return false;
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (end == value.c_str() || *end != '\0' || !(args->seconds > 0)) {
        return false;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (flag == "--work-dir") {
      args->work_dir = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return args->workload >= 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: pie_e2e_bench --workload "
                 "serve_steady|ingest_refresh|checkpoint_recover --seed N "
                 "--seconds S --trace 0|1 [--work-dir DIR] [--trace-out FILE] "
                 "[--smoke]\n");
    return 2;
  }
  // Before the first library call: the worker pool sizes itself once.
  setenv("PIE_THREADS", kPoolThreads, 1);
  const Sizes& sizes = args.smoke ? kSmokeSizes : kFullSizes;
  std::error_code ec;
  std::filesystem::create_directories(args.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "cannot create %s: %s\n", args.work_dir.c_str(),
                 ec.message().c_str());
    return 1;
  }

  Gate gate;
  Results res;
  World world;
  uint64_t first_digest = 0;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    world = World();
    const Stopwatch sw;
    const bool ok = Setup(args, sizes, &world);
    res.setup_cpu_s.push_back(sw.CpuS());
    res.setup_wall_s.push_back(sw.WallS());
    if (rep == 0) first_digest = world.inputs_digest;
    gate.Record(ok && world.inputs_digest == first_digest,
                "set-up failed or generated different inputs from one seed");
  }

  Tracer tracer;
  Tracing tr;
  if (args.trace) {
    tr.tracer = &tracer;
    tr.main = tracer.NewThread();
  }
  const double retries_before = RetriesTotal();
  {
    Stages stages(args, world, tr, &gate, &res);
    RunSchedule(args, sizes, &stages, res);
  }
  Attribution attribution;
  if (args.trace) AttributionPass(world, tr, &gate, &attribution);
  const double retries = RetriesTotal() - retries_before;

  std::printf("# workload %s  seed %llu  seconds %g  trace %d%s\n",
              kWorkloads[args.workload],
              static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, args.smoke ? "  (smoke sizes)" : "");
  std::printf("# inputs_digest %016llx  answers_digest %016llx\n",
              static_cast<unsigned long long>(world.inputs_digest),
              static_cast<unsigned long long>(AnswersDigest(world)));
  PrintTiming("query", res.query);
  PrintTiming("refresh", res.refresh);
  PrintTiming("checkpoint", res.checkpoint);
  PrintTiming("recover", res.recover);
  PrintTiming("merge", res.merge);
  std::printf("# setup n=%zu  refresh rounds=%lld  checkpoint rounds=%lld  "
              "union rows=%lld\n",
              res.setup_cpu_s.size(),
              static_cast<long long>(res.refresh_rounds),
              static_cast<long long>(res.checkpoint_rounds),
              static_cast<long long>(attribution.union_rows));

  const std::vector<Metric> end_to_end = EndToEndMetrics(res);
  std::vector<Metric> metrics = end_to_end;
  if (args.trace) {
    metrics = PerLayerMetrics(res, tracer, attribution, retries);
    for (const Metric& m : WallMetrics(res)) metrics.push_back(m);
    std::map<std::string, int64_t> self = tracer.SelfNsByLayer();
    int64_t total = 0;
    for (const char* layer : kLayers) total += self[layer];
    for (const char* layer : kLayers) {
      metrics.push_back(
          {std::string("self.") + layer + "_ms", Ms(self[layer]), "ms"});
      std::printf("# self time %-9s %10.2f ms  %5.1f%%\n", layer,
                  Ms(self[layer]),
                  100.0 * static_cast<double>(self[layer]) /
                      static_cast<double>(total));
    }
    for (const Metric& m : end_to_end) {
      std::printf("# traced %s %.6g %s\n", m.name.c_str(), m.value, m.unit);
    }
    std::printf("# tracing overhead: serve query p50 %.4f ms traced vs "
                "%.4f ms untraced (%+.2f%%, %d rotations each)\n",
                attribution.overhead_traced_ms,
                attribution.overhead_untraced_ms,
                100.0 * (attribution.overhead_traced_ms /
                             attribution.overhead_untraced_ms -
                         1.0),
                kAttributionReps);
    const std::string trace_path = args.trace_out.empty()
                                       ? args.work_dir + "/trace.jsonl"
                                       : args.trace_out;
    gate.Record(tracer.WriteJsonLines(trace_path),
                "cannot write " + trace_path);
    std::printf("# %zu spans written to %s\n", tracer.size(),
                trace_path.c_str());
  }
  for (const Metric& m : metrics) {
    gate.Record(std::isfinite(m.value), m.name + " is not finite");
  }
  std::printf("# failed_ops_ratio %.6g (%lld failed of %lld attempted)\n",
              static_cast<double>(gate.failed) /
                  static_cast<double>(gate.attempted),
              static_cast<long long>(gate.failed),
              static_cast<long long>(gate.attempted));
  for (const std::string& message : gate.messages) {
    std::fprintf(stderr, "correctness gate: %s\n", message.c_str());
  }
  for (const Metric& m : metrics) {
    std::printf("%s %.17g %s\n", m.name.c_str(), m.value, m.unit);
  }

  const bool correct = gate.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false",
              static_cast<long long>(gate.attempted),
              static_cast<long long>(gate.failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit);
  }
  std::printf("}}\n");
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
