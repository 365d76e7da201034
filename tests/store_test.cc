// Tests for the store layer: one-pass streaming sketch builders
// (equivalence with the batch builders on any arrival order, exact
// merges), the sharded SketchStore's snapshot semantics, and the
// QueryService's parity with the aggregate-layer estimators.

#include <algorithm>
#include <bit>
#include <cmath>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "aggregate/distinct.h"
#include "aggregate/distinct_multi.h"
#include "aggregate/dominance.h"
#include "gtest/gtest.h"
#include "persist/format.h"
#include "persist/wire.h"
#include "sampling/bottomk.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "store/streaming_sketch.h"
#include "util/random.h"
#include "workload/sets.h"

namespace pie {
namespace {

std::vector<WeightedItem> ZipfishItems(int n, Rng& rng) {
  std::vector<WeightedItem> items;
  for (int i = 0; i < n; ++i) {
    items.push_back({static_cast<uint64_t>(i + 1),
                     std::ceil(100.0 / (1 + rng.UniformInt(50)))});
  }
  return items;
}

std::vector<std::vector<WeightedItem>> Permutations(
    const std::vector<WeightedItem>& items) {
  std::vector<std::vector<WeightedItem>> perms;
  perms.push_back(items);
  perms.push_back({items.rbegin(), items.rend()});
  std::mt19937_64 shuffler(12345);
  for (int i = 0; i < 3; ++i) {
    auto shuffled = items;
    std::shuffle(shuffled.begin(), shuffled.end(), shuffler);
    perms.push_back(std::move(shuffled));
  }
  return perms;
}

// ---------------------------------------------------------------------------
// StreamingPpsSketch
// ---------------------------------------------------------------------------

TEST(StreamingPpsTest, MatchesBatchBuildOnAnyPermutation) {
  Rng rng(3);
  const auto items = ZipfishItems(300, rng);
  const double tau = 40.0;
  const uint64_t salt = 9;
  const auto batch = StreamingPpsSketch::Build(items, tau, salt);
  std::vector<WeightedItem> batch_sorted(batch.entries());
  std::sort(batch_sorted.begin(), batch_sorted.end(),
            [](const WeightedItem& a, const WeightedItem& b) {
              return a.key < b.key;
            });
  ASSERT_GT(batch.size(), 0);

  for (const auto& perm : Permutations(items)) {
    StreamingPpsSketch stream(tau, salt);
    for (const auto& item : perm) stream.Update(item.key, item.weight);
    const auto stream_sorted = stream.EntriesByKey();
    ASSERT_EQ(stream_sorted.size(), batch_sorted.size());
    for (size_t i = 0; i < stream_sorted.size(); ++i) {
      EXPECT_EQ(stream_sorted[i].key, batch_sorted[i].key);
      EXPECT_EQ(stream_sorted[i].weight, batch_sorted[i].weight);  // bitwise
    }
    EXPECT_EQ(stream.num_updates(), items.size());
  }
}

TEST(StreamingPpsTest, MergeOfDisjointPartsMatchesDirect) {
  Rng rng(5);
  const auto items = ZipfishItems(400, rng);
  const double tau = 25.0;
  const uint64_t salt = 77;
  StreamingPpsSketch direct(tau, salt);
  for (const auto& item : items) direct.Update(item.key, item.weight);

  std::vector<StreamingPpsSketch> parts(
      4, StreamingPpsSketch(tau, salt));
  for (const auto& item : items) {
    parts[Mix64(item.key) % 4].Update(item.key, item.weight);
  }
  StreamingPpsSketch merged(tau, salt);
  for (const auto& part : parts) merged.Merge(part);

  const auto direct_sorted = direct.EntriesByKey();
  const auto merged_sorted = merged.EntriesByKey();
  ASSERT_EQ(direct_sorted.size(), merged_sorted.size());
  for (size_t i = 0; i < direct_sorted.size(); ++i) {
    EXPECT_EQ(direct_sorted[i].key, merged_sorted[i].key);
    EXPECT_EQ(direct_sorted[i].weight, merged_sorted[i].weight);
  }
  EXPECT_EQ(merged.num_updates(), direct.num_updates());
}

TEST(StreamingPpsTest, SampledKeyAccumulatesRepeats) {
  StreamingPpsSketch stream(10.0, /*salt=*/1);
  // Weight 100 clears any threshold; repeats accumulate exactly.
  stream.Update(42, 100.0);
  stream.Update(42, 7.0);
  double value = 0.0;
  ASSERT_TRUE(stream.Lookup(42, &value));
  EXPECT_EQ(value, 107.0);
  EXPECT_EQ(stream.size(), 1);
  EXPECT_EQ(stream.num_updates(), 2u);

  // A repeat whose sum would overflow is counted but leaves the stored
  // weight unchanged, in Update and in Merge alike.
  stream.Update(42, 1e308);
  stream.Update(42, 1e308);
  ASSERT_TRUE(stream.Lookup(42, &value));
  EXPECT_EQ(value, 107.0 + 1e308);
  EXPECT_EQ(stream.num_updates(), 4u);
  StreamingPpsSketch a(10.0, /*salt=*/1);
  StreamingPpsSketch b(10.0, /*salt=*/1);
  a.Update(42, 1.5e308);
  b.Update(42, 1.5e308);
  a.Merge(b);
  ASSERT_TRUE(a.Lookup(42, &value));
  EXPECT_EQ(value, 1.5e308);
  EXPECT_EQ(a.num_updates(), 2u);
}

// ---------------------------------------------------------------------------
// StreamingPpsSketch key index
// ---------------------------------------------------------------------------

/// The first `count` keys k >= 1 that a `num_shards`-way store routes to
/// shard 0 (Mix64(k) % num_shards == 0): keys whose hashes share their low
/// bits.
std::vector<uint64_t> ShardZeroKeys(size_t count, uint64_t num_shards) {
  std::vector<uint64_t> keys;
  for (uint64_t key = 1; keys.size() < count; ++key) {
    if (Mix64(key) % num_shards == 0) keys.push_back(key);
  }
  return keys;
}

/// Feeds keys[0, n) one at a time (every weight clears tau, so each is
/// sampled) and, on both sides of every index growth (the entry count
/// passing a power of two), checks that each stored key looks up its
/// weight and that keys[n, n + 64) and `absent` miss.
void ExpectIndexHoldsEveryKey(const std::vector<uint64_t>& keys, size_t n,
                              const std::vector<uint64_t>& absent) {
  StreamingPpsSketch sketch(/*tau=*/1.0, /*salt=*/5);
  auto weight_of = [](size_t i) { return 2.0 + static_cast<double>(i % 7); };
  for (size_t i = 0; i < n; ++i) {
    sketch.Update(keys[i], weight_of(i));
    const size_t count = i + 1;
    if (!std::has_single_bit(count) && !std::has_single_bit(count - 1) &&
        count != n) {
      continue;
    }
    ASSERT_EQ(sketch.size(), static_cast<int>(count));
    for (size_t j = 0; j < count; ++j) {
      double value = 0.0;
      ASSERT_TRUE(sketch.Lookup(keys[j], &value)) << j << " of " << count;
      ASSERT_EQ(value, weight_of(j)) << j << " of " << count;
    }
    for (size_t j = count; j < std::min(count + 64, keys.size()); ++j) {
      ASSERT_FALSE(sketch.Lookup(keys[j], nullptr)) << j << " of " << count;
    }
    for (const uint64_t key : absent) {
      ASSERT_FALSE(sketch.Lookup(key, nullptr)) << key << " at " << count;
    }
  }
}

TEST(StreamingPpsIndexTest, SequentialKeysAcrossEveryGrowth) {
  const size_t n = 100000;
  std::vector<uint64_t> keys(n + 64);
  for (size_t i = 0; i < keys.size(); ++i) keys[i] = i + 1;
  ExpectIndexHoldsEveryKey(keys, n,
                           {0, n + 1000, uint64_t{1} << 40, ~uint64_t{0}});
}

TEST(StreamingPpsIndexTest, KeysOfOneStoreShardAcrossEveryGrowth) {
  // The store's 8-way routing fixes the low 3 bits of Mix64 for all of a
  // shard's keys; the index must not probe from those bits.
  const size_t n = 100000;
  const std::vector<uint64_t> keys = ShardZeroKeys(n + 64 + 4, 8);
  const std::vector<uint64_t> absent(keys.end() - 4, keys.end());
  ExpectIndexHoldsEveryKey(keys, n, absent);
}

TEST(StreamingPpsIndexTest, CopyKeepsItsAnswersWhileTheOriginalGrows) {
  StreamingPpsSketch original(/*tau=*/1.0, /*salt=*/3);
  for (uint64_t key = 1; key <= 1000; ++key) original.Update(key, 5.0);
  const StreamingPpsSketch copy = original;
  const std::vector<WeightedItem> want = copy.entries();
  // New keys force several index growths in the original; repeats
  // accumulate into its stored weights.
  for (uint64_t key = 1001; key <= 20000; ++key) original.Update(key, 5.0);
  for (uint64_t key = 1; key <= 1000; ++key) original.Update(key, 1.0);

  ASSERT_EQ(copy.entries().size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(copy.entries()[i].key, want[i].key);
    EXPECT_EQ(copy.entries()[i].weight, want[i].weight);
  }
  for (uint64_t key = 1; key <= 1000; ++key) {
    double value = 0.0;
    ASSERT_TRUE(copy.Lookup(key, &value)) << key;
    EXPECT_EQ(value, 5.0);
    ASSERT_TRUE(original.Lookup(key, &value)) << key;
    EXPECT_EQ(value, 6.0);
  }
  for (uint64_t key = 1001; key <= 20000; key += 97) {
    EXPECT_FALSE(copy.Lookup(key, nullptr)) << key;
    EXPECT_TRUE(original.Lookup(key, nullptr)) << key;
  }
  EXPECT_EQ(copy.num_updates(), 1000u);

  // The copy's own index keeps absorbing independently.
  StreamingPpsSketch grown = copy;
  for (uint64_t key = 1; key <= 20000; ++key) grown.Update(key, 1.0);
  double value = 0.0;
  ASSERT_TRUE(grown.Lookup(1, &value));
  EXPECT_EQ(value, 6.0);
  ASSERT_TRUE(copy.Lookup(1, &value));
  EXPECT_EQ(value, 5.0);
}

TEST(StreamingPpsIndexTest, MergeAcrossIndexGrowthMatchesDirect) {
  Rng rng(29);
  const auto items = ZipfishItems(30000, rng);
  const double tau = 20.0;
  const uint64_t salt = 41;
  const auto direct = StreamingPpsSketch::Build(items, tau, salt);
  ASSERT_GT(direct.size(), 1000);
  // A small sketch absorbs a large one (its index grows inside Merge),
  // then more small parts: the concatenated streams' sketch, entry for
  // entry in arrival order.
  for (const size_t split : {size_t{0}, size_t{3}, size_t{100}, size_t{29000}}) {
    SCOPED_TRACE(split);
    StreamingPpsSketch merged = StreamingPpsSketch::Build(
        {items.begin(), items.begin() + static_cast<long>(split)}, tau, salt);
    const size_t second = std::min(items.size(), split + 20000);
    merged.Merge(StreamingPpsSketch::Build(
        {items.begin() + static_cast<long>(split),
         items.begin() + static_cast<long>(second)},
        tau, salt));
    for (size_t from = second; from < items.size(); from += 50) {
      const size_t to = std::min(items.size(), from + 50);
      merged.Merge(StreamingPpsSketch::Build(
          {items.begin() + static_cast<long>(from),
           items.begin() + static_cast<long>(to)},
          tau, salt));
    }
    ASSERT_EQ(merged.entries().size(), direct.entries().size());
    for (size_t i = 0; i < direct.entries().size(); ++i) {
      EXPECT_EQ(merged.entries()[i].key, direct.entries()[i].key);
      EXPECT_EQ(merged.entries()[i].weight, direct.entries()[i].weight);
    }
    EXPECT_EQ(merged.num_updates(), direct.num_updates());
    for (const auto& item : items) {
      double got = 0.0, want = 0.0;
      const bool in = direct.Lookup(item.key, &want);
      ASSERT_EQ(merged.Lookup(item.key, &got), in) << item.key;
      if (in) {
        EXPECT_EQ(got, want);
      }
    }
  }
}

/// One PPS wire block over arbitrary (possibly invalid) entries, with
/// valid framing and slab CRCs, as a crafted file would carry.
std::string CraftedPpsBlock(double tau, uint64_t salt,
                            const std::vector<WeightedItem>& entries) {
  persist::WireWriter w;
  w.U32(persist::kTagPps);
  w.I32(0);
  w.F64(tau);
  w.U64(salt);
  w.U64(entries.size());  // num_updates
  w.U64(entries.size());
  size_t from = w.size();
  for (const auto& e : entries) w.U64(e.key);
  w.U32(w.CrcSince(from));
  from = w.size();
  for (const auto& e : entries) w.F64(e.weight);
  w.U32(w.CrcSince(from));
  return w.buffer();
}

TEST(StreamingPpsIndexTest, InvalidPartsAreTypedErrors) {
  const double tau = 10.0;
  const uint64_t salt = 4;
  StreamingPpsSketch sketch(tau, salt);
  for (uint64_t key = 1; key <= 50; ++key) sketch.Update(key, 20.0);
  const std::vector<WeightedItem> valid = sketch.entries();
  const SeedFunction seed(salt);
  // A key whose inclusion threshold seed * tau exceeds 1, with weight
  // half of it: below the threshold, so no valid sketch can hold it.
  uint64_t low_key = 1000;
  while (seed(low_key) * tau <= 1.0) ++low_key;
  const double low_weight = seed(low_key) * tau / 2;

  auto with = [&valid](WeightedItem extra) {
    std::vector<WeightedItem> entries = valid;
    entries.insert(entries.begin() + 20, extra);
    return entries;
  };
  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::vector<WeightedItem>> invalid = {
      with(valid[7]),           // duplicate key
      with(valid.back()),       // duplicate of a later key
      with({low_key, low_weight}),
      with({2000, kNaN}),
      with({2000, kInf}),
      with({2000, 0.0}),
      with({2000, -20.0})};

  auto ok = StreamingPpsSketch::FromParts(tau, salt, valid, 50);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->size(), 50);
  for (const auto& entries : invalid) {
    auto built = StreamingPpsSketch::FromParts(tau, salt, entries, 51);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);

    const std::string block = CraftedPpsBlock(tau, salt, entries);
    persist::WireReader r(block);
    auto decoded = persist::DeserializePpsSketch(&r);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss)
        << decoded.status().ToString();
  }
  for (const double bad_tau : {0.0, -1.0, kNaN, kInf}) {
    auto built = StreamingPpsSketch::FromParts(bad_tau, salt, valid, 50);
    ASSERT_FALSE(built.ok());
    EXPECT_EQ(built.status().code(), StatusCode::kInvalidArgument);
  }
  // The crafted framing itself decodes clean on valid entries.
  const std::string block = CraftedPpsBlock(tau, salt, valid);
  persist::WireReader r(block);
  auto decoded = persist::DeserializePpsSketch(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->second.size(), 50);
}

// ---------------------------------------------------------------------------
// StreamingBottomkSketch
// ---------------------------------------------------------------------------

void ExpectSketchesIdentical(const BottomKSketch& a, const BottomKSketch& b) {
  EXPECT_EQ(a.family, b.family);
  EXPECT_EQ(a.k, b.k);
  EXPECT_EQ(a.threshold, b.threshold);  // bitwise (also covers +inf)
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].key, b.entries[i].key);
    EXPECT_EQ(a.entries[i].weight, b.entries[i].weight);
    EXPECT_EQ(a.entries[i].rank, b.entries[i].rank);
  }
}

TEST(StreamingBottomkTest, MatchesBatchSamplerOnAnyPermutation) {
  Rng rng(7);
  const auto items = ZipfishItems(500, rng);
  for (RankFamily family : {RankFamily::kPps, RankFamily::kExp}) {
    const int k = 64;
    const uint64_t salt = 21;
    const auto batch = BottomKSample(items, k, family, SeedFunction(salt));
    for (const auto& perm : Permutations(items)) {
      StreamingBottomkSketch stream(k, family, salt);
      for (const auto& item : perm) stream.Update(item.key, item.weight);
      ExpectSketchesIdentical(stream.Finalize(), batch);
    }
  }
}

TEST(StreamingBottomkTest, MergeOfDisjointPartsMatchesDirect) {
  Rng rng(9);
  const auto items = ZipfishItems(300, rng);
  const int k = 48;
  const uint64_t salt = 33;
  const auto batch =
      BottomKSample(items, k, RankFamily::kPps, SeedFunction(salt));

  // Uneven split: one part smaller than k (infinite threshold), one large.
  std::vector<StreamingBottomkSketch> parts(
      3, StreamingBottomkSketch(k, RankFamily::kPps, salt));
  for (size_t i = 0; i < items.size(); ++i) {
    const int part = i < 10 ? 0 : (i % 2 == 0 ? 1 : 2);
    parts[static_cast<size_t>(part)].Update(items[i].key, items[i].weight);
  }
  StreamingBottomkSketch merged(k, RankFamily::kPps, salt);
  for (const auto& part : parts) merged.Merge(part);
  ExpectSketchesIdentical(merged.Finalize(), batch);
  EXPECT_EQ(merged.num_updates(), items.size());
}

TEST(StreamingBottomkTest, NonFiniteWeightsAreCountedButNeverRetained) {
  Rng rng(11);
  const auto items = ZipfishItems(200, rng);
  const int k = 32;
  const uint64_t salt = 41;
  StreamingBottomkSketch clean(k, RankFamily::kPps, salt);
  StreamingBottomkSketch poisoned(k, RankFamily::kPps, salt);
  for (const auto& item : items) {
    clean.Update(item.key, item.weight);
    poisoned.Update(item.key, item.weight);
  }
  poisoned.Update(1001, std::numeric_limits<double>::quiet_NaN());
  poisoned.Update(1002, std::numeric_limits<double>::infinity());
  poisoned.Update(1003, -std::numeric_limits<double>::infinity());
  ExpectSketchesIdentical(poisoned.Finalize(), clean.Finalize());
  EXPECT_EQ(poisoned.num_updates(), items.size() + 3);
}

TEST(StreamingBottomkTest, FewerThanKItemsIsExact) {
  StreamingBottomkSketch stream(10, RankFamily::kPps, /*salt=*/3);
  stream.Update(1, 5.0);
  stream.Update(2, 3.0);
  stream.Update(3, 0.0);  // never retained
  const auto sketch = stream.Finalize();
  EXPECT_EQ(sketch.entries.size(), 2u);
  EXPECT_TRUE(std::isinf(sketch.threshold));
}

// ---------------------------------------------------------------------------
// SketchStore snapshots
// ---------------------------------------------------------------------------

SketchStoreOptions SmallStoreOptions() {
  SketchStoreOptions options;
  options.num_shards = 4;
  options.default_tau = 30.0;
  options.salt = 101;
  return options;
}

TEST(SketchStoreTest, SnapshotReusesCleanShardsAndSeesWrites) {
  Rng rng(15);
  const auto items = ZipfishItems(200, rng);
  SketchStore store(SmallStoreOptions());
  store.UpdateBatch(0, items);

  const auto snap1 = store.Snapshot();
  const auto snap2 = store.Snapshot();
  for (int s = 0; s < store.num_shards(); ++s) {
    // Quiet shards republish nothing: both snapshots share the same
    // immutable per-shard capture.
    EXPECT_EQ(&snap1->Shard(s), &snap2->Shard(s)) << s;
  }

  // One write dirties exactly its shard.
  const uint64_t key = 999983;
  store.Update(0, key, 1e6);
  const auto snap3 = store.Snapshot();
  for (int s = 0; s < store.num_shards(); ++s) {
    if (s == store.ShardOf(key)) {
      EXPECT_NE(&snap1->Shard(s), &snap3->Shard(s));
    } else {
      EXPECT_EQ(&snap1->Shard(s), &snap3->Shard(s));
    }
  }
  // The old snapshot is immutable: the new key is visible only in snap3.
  EXPECT_FALSE(snap1->MergedInstance(0).Lookup(key, nullptr));
  EXPECT_TRUE(snap3->MergedInstance(0).Lookup(key, nullptr));
}

TEST(SketchStoreTest, MaterializeMatchesDirectBuild) {
  Rng rng(17);
  const auto items = ZipfishItems(500, rng);
  const auto options = SmallStoreOptions();
  SketchStore store(options);
  store.UpdateBatch(2, items);
  const auto snapshot = store.Snapshot();
  EXPECT_EQ(snapshot->Instances(), std::vector<int>{2});
  EXPECT_EQ(snapshot->UpdateCount(2), items.size());

  const auto materialized = snapshot->MergedInstance(2);
  const auto direct = StreamingPpsSketch::Build(items, options.default_tau,
                                                store.InstanceSalt(2));
  ASSERT_EQ(materialized.size(), direct.size());
  for (const auto& e : direct.entries()) {
    double value = 0.0;
    ASSERT_TRUE(materialized.Lookup(e.key, &value)) << e.key;
    EXPECT_EQ(value, e.weight);
  }
  EXPECT_EQ(materialized.tau(), direct.tau());
  EXPECT_EQ(materialized.salt(), direct.salt());
}

TEST(SketchStoreTest, SaltDerivation) {
  SketchStoreOptions options = SmallStoreOptions();
  {
    SketchStore store(options);
    EXPECT_NE(store.InstanceSalt(0), store.InstanceSalt(1));
  }
  options.coordinated = true;
  {
    SketchStore store(options);
    EXPECT_EQ(store.InstanceSalt(0), store.InstanceSalt(1));
    EXPECT_EQ(store.InstanceSalt(0), options.salt);
  }
}

TEST(SketchStoreTest, PerInstanceTauOverride) {
  SketchStoreOptions options = SmallStoreOptions();
  options.instance_tau[1] = 7.5;
  SketchStore store(options);
  EXPECT_EQ(store.TauFor(0), options.default_tau);
  EXPECT_EQ(store.TauFor(1), 7.5);
  store.Update(1, 4, 1.0);
  EXPECT_EQ(store.Snapshot()->TauFor(1), 7.5);
}

/// Every answer QueryService gives over instances 0 and 1, as bit patterns
/// (so a NaN answer never compares equal).
std::vector<uint64_t> AnswerBits(const SketchStore& store) {
  const QueryService service(store.Snapshot(), {/*num_threads=*/1});
  std::vector<uint64_t> bits;
  auto add = [&](const IntervalEstimate& interval) {
    for (double v : {interval.estimate, interval.variance, interval.lo,
                     interval.hi}) {
      bits.push_back(std::bit_cast<uint64_t>(v));
    }
  };
  const auto max_est = service.MaxDominance(0, 1);
  const auto min_est = service.MinDominanceHt(0, 1);
  const auto l1_est = service.L1Distance(0, 1);
  EXPECT_TRUE(max_est.ok() && min_est.ok() && l1_est.ok());
  if (!max_est.ok() || !min_est.ok() || !l1_est.ok()) return bits;
  add(max_est->ht);
  add(max_est->l);
  add(*min_est);
  add(*l1_est);
  return bits;
}

TEST(SketchStoreTest, NonFiniteWeightsAreCountedButNeverStored) {
  SketchStoreOptions options;
  options.num_shards = 4;
  options.default_tau = 10.0;
  auto build = [&options] {
    auto store = std::make_unique<SketchStore>(options);
    for (uint64_t key = 1; key <= 2000; ++key) {
      // Even keys sit above tau (always sampled); odd keys below it.
      const double weight = key % 2 == 0 ? 50.0 : 1.0 + key % 9;
      store->Update(0, key, weight);
      store->Update(1, key, weight);
    }
    return store;
  };
  const auto clean = build();
  ASSERT_TRUE(clean->Snapshot()->MergedInstance(0).Lookup(8, nullptr));
  ASSERT_FALSE(clean->Snapshot()->MergedInstance(0).Lookup(5000, nullptr));
  const uint64_t clean_updates = clean->Snapshot()->UpdateCount(0);

  const double kNaN = std::numeric_limits<double>::quiet_NaN();
  const double kInf = std::numeric_limits<double>::infinity();
  // Each input's last record must be dropped; the ones before it are kept.
  // 1e308 is finite, but a second one overflows the key's stored weight.
  const std::vector<std::vector<double>> inputs = {
      {kNaN}, {kInf}, {-kInf}, {1e308, 1e308}};
  int round = 0;
  for (const auto& records : inputs) {
    // Key 8 is sampled; key 5000 is not in the store.
    for (const uint64_t key : {uint64_t{8}, uint64_t{5000}}) {
      for (const bool batched : {false, true}) {
        SCOPED_TRACE(::testing::Message()
                     << "last weight " << records.back() << " of "
                     << records.size() << ", key " << key
                     << (batched ? " UpdateBatch" : " Update"));
        auto apply = [&](SketchStore* store, size_t count) {
          std::vector<WeightedItem> batch;
          for (size_t i = 0; i < count; ++i) {
            if (batched) {
              batch.push_back({key, records[i]});
            } else {
              store->Update(0, key, records[i]);
            }
          }
          if (batched) store->UpdateBatch(0, batch);
        };
        auto kept = build();
        apply(kept.get(), records.size() - 1);
        const std::vector<uint64_t> want = AnswerBits(*kept);
        auto store = build();
        apply(store.get(), records.size());
        EXPECT_EQ(AnswerBits(*store), want);
        EXPECT_EQ(store->Snapshot()->UpdateCount(0),
                  clean_updates + records.size());
        if (records.size() == 2) {
          // The stored 1e308 overflows its key's variance estimate: the
          // interval must be unbounded, never a zero-width one around
          // the estimate.
          const QueryService service(store->Snapshot(), {/*num_threads=*/1});
          const auto max_est = service.MaxDominance(0, 1);
          const auto l1_est = service.L1Distance(0, 1);
          ASSERT_TRUE(max_est.ok() && l1_est.ok());
          for (const IntervalEstimate& interval :
               {max_est->ht, max_est->l, *l1_est}) {
            EXPECT_TRUE(std::isnan(interval.variance)) << interval.variance;
            EXPECT_EQ(interval.std_err, kInf);
            EXPECT_EQ(interval.lo, -kInf);
            EXPECT_EQ(interval.hi, kInf);
          }
        }
        double stored = 0.0;
        if (store->Snapshot()->MergedInstance(0).Lookup(key, &stored)) {
          EXPECT_TRUE(std::isfinite(stored)) << stored;
        }

        const std::string dir = testing::TempDir() + "/store_nonfinite_" +
                                std::to_string(round++);
        std::filesystem::remove_all(dir);
        ASSERT_TRUE(store->Checkpoint(dir).ok());
        auto recovered = SketchStore::Recover(dir);
        ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
        EXPECT_EQ(AnswerBits(**recovered), want);
        std::filesystem::remove_all(dir);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// QueryService parity with the aggregate layer
// ---------------------------------------------------------------------------

struct TwoInstanceStore {
  std::shared_ptr<SketchStore> store;
  std::vector<WeightedItem> items1, items2;
};

TwoInstanceStore MakeTwoInstanceStore(int num_shards = 8) {
  Rng rng(23);
  TwoInstanceStore out;
  // Overlapping universes with distinct weights per instance.
  for (int i = 0; i < 600; ++i) {
    const uint64_t key = static_cast<uint64_t>(1 + rng.UniformInt(800));
    const double weight = std::ceil(100.0 / (1 + rng.UniformInt(30)));
    auto& items = i % 2 == 0 ? out.items1 : out.items2;
    bool seen = false;
    for (const auto& item : items) seen = seen || item.key == key;
    if (!seen) items.push_back({key, weight});
  }
  SketchStoreOptions options;
  options.num_shards = num_shards;
  options.default_tau = 20.0;
  options.salt = 5150;
  out.store = std::make_shared<SketchStore>(options);
  out.store->UpdateBatch(0, out.items1);
  out.store->UpdateBatch(1, out.items2);
  return out;
}

TEST(QueryServiceTest, MaxDominanceMatchesAggregatePath) {
  // On one shard the store and the offline scan build the same rows in the
  // same order, so the answers agree bit for bit; across 8 shards the
  // per-shard reduction reorders the sum.
  for (const int num_shards : {8, 1}) {
    SCOPED_TRACE(::testing::Message() << num_shards << " shards");
    const auto fixture = MakeTwoInstanceStore(num_shards);
    const auto snapshot = fixture.store->Snapshot();
    QueryService service(snapshot, {/*num_threads=*/1});
    const auto store_est = service.MaxDominance(0, 1);
    ASSERT_TRUE(store_est.ok());

    const auto s1 = snapshot->MergedInstance(0);
    const auto s2 = snapshot->MergedInstance(1);
    const auto direct = EstimateMaxDominance(s1, s2);
    if (num_shards == 1) {
      EXPECT_EQ(store_est->ht.estimate, direct.ht);
      EXPECT_EQ(store_est->l.estimate, direct.l);
    } else {
      EXPECT_NEAR(store_est->ht.estimate, direct.ht,
                  1e-9 * std::fabs(direct.ht));
      EXPECT_NEAR(store_est->l.estimate, direct.l,
                  1e-9 * std::fabs(direct.l));
    }

    // A point-only scan (no second-moment pass) gives the same bits.
    QueryServiceOptions point_only;
    point_only.with_variance = false;
    const auto point = QueryService(snapshot, point_only).MaxDominance(0, 1);
    ASSERT_TRUE(point.ok());
    EXPECT_EQ(point->ht.estimate, store_est->ht.estimate);
    EXPECT_EQ(point->l.estimate, store_est->l.estimate);
  }
}

TEST(QueryServiceTest, MinAndL1MatchAggregatePath) {
  for (const int num_shards : {8, 1}) {
    SCOPED_TRACE(::testing::Message() << num_shards << " shards");
    const auto fixture = MakeTwoInstanceStore(num_shards);
    const auto snapshot = fixture.store->Snapshot();
    QueryService service(snapshot, {/*num_threads=*/1});
    const auto s1 = snapshot->MergedInstance(0);
    const auto s2 = snapshot->MergedInstance(1);
    QueryServiceOptions point_only;
    point_only.with_variance = false;

    const double direct_min = EstimateMinDominanceHt(s1, s2);
    for (const auto& options : {QueryServiceOptions{}, point_only}) {
      const auto min_est = QueryService(snapshot, options).MinDominanceHt(0, 1);
      ASSERT_TRUE(min_est.ok());
      if (num_shards == 1) {
        EXPECT_EQ(min_est->estimate, direct_min);
      } else {
        EXPECT_NEAR(min_est->estimate, direct_min,
                    1e-9 * std::fabs(direct_min));
      }
    }

    const auto l1_est = service.L1Distance(0, 1);
    ASSERT_TRUE(l1_est.ok());
    const double direct_l1 = EstimateL1Distance(s1, s2);
    EXPECT_NEAR(l1_est->estimate, direct_l1, 1e-9 * std::fabs(direct_l1));
    const auto l1_point = QueryService(snapshot, point_only).L1Distance(0, 1);
    ASSERT_TRUE(l1_point.ok());
    EXPECT_NEAR(l1_point->estimate, l1_est->estimate,
                1e-12 * std::fabs(l1_est->estimate));
  }
}

TEST(QueryServiceTest, ParallelScanIsBitwiseDeterministic) {
  const auto fixture = MakeTwoInstanceStore();
  const auto snapshot = fixture.store->Snapshot();
  const auto sequential =
      QueryService(snapshot, {/*num_threads=*/1}).MaxDominance(0, 1);
  const auto parallel =
      QueryService(snapshot, {/*num_threads=*/4}).MaxDominance(0, 1);
  ASSERT_TRUE(sequential.ok());
  ASSERT_TRUE(parallel.ok());
  EXPECT_EQ(sequential->ht.estimate, parallel->ht.estimate);  // bitwise: fixed reduction order
  EXPECT_EQ(sequential->l.estimate, parallel->l.estimate);
  EXPECT_EQ(sequential->ht.variance, parallel->ht.variance);
  EXPECT_EQ(sequential->l.variance, parallel->l.variance);
}

TEST(QueryServiceTest, DistinctUnionMatchesClassificationPath) {
  const SetPair pair = MakeJaccardSetPair(3000, 0.4);
  SketchStoreOptions options;
  options.num_shards = 8;
  options.default_tau = 1.0 / 0.25;  // p = 0.25 membership sampling
  options.salt = 31337;
  SketchStore store(options);
  for (uint64_t key : pair.n1) store.Update(0, key, 1.0);
  for (uint64_t key : pair.n2) store.Update(1, key, 1.0);
  const auto snapshot = store.Snapshot();

  QueryService service(snapshot, {/*num_threads=*/2});
  const auto est = service.DistinctUnion({0, 1});
  ASSERT_TRUE(est.ok());

  const auto b1 = BinaryInstanceFromStore(*snapshot, 0);
  const auto b2 = BinaryInstanceFromStore(*snapshot, 1);
  const auto c = ClassifyDistinct(b1, b2);
  const double ht = DistinctHtEstimate(c, b1.p, b2.p);
  const double l = DistinctLEstimate(c, b1.p, b2.p);
  EXPECT_NEAR(est->ht.estimate, ht, 1e-9 * std::fabs(ht) + 1e-9);
  EXPECT_NEAR(est->l.estimate, l, 1e-9 * std::fabs(l) + 1e-9);
}

TEST(QueryServiceTest, DistinctUnionMultiInstanceMatchesMultiPath) {
  Rng rng(41);
  SketchStoreOptions options;
  options.num_shards = 4;
  options.default_tau = 1.0 / 0.2;
  options.salt = 2024;
  SketchStore store(options);
  std::vector<std::vector<uint64_t>> sets(3);
  for (int i = 0; i < 3; ++i) {
    for (int u = 0; u < 2000; ++u) {
      const uint64_t key = static_cast<uint64_t>(1 + rng.UniformInt(4000));
      sets[static_cast<size_t>(i)].push_back(key);
    }
    std::sort(sets[static_cast<size_t>(i)].begin(),
              sets[static_cast<size_t>(i)].end());
    sets[static_cast<size_t>(i)].erase(
        std::unique(sets[static_cast<size_t>(i)].begin(),
                    sets[static_cast<size_t>(i)].end()),
        sets[static_cast<size_t>(i)].end());
    for (uint64_t key : sets[static_cast<size_t>(i)]) {
      store.Update(i, key, 1.0);
    }
  }
  const auto snapshot = store.Snapshot();
  const auto est =
      QueryService(snapshot, {/*num_threads=*/1}).DistinctUnion({0, 1, 2});
  ASSERT_TRUE(est.ok());

  std::vector<BinaryInstanceSketch> sketches;
  for (int i = 0; i < 3; ++i) {
    sketches.push_back(BinaryInstanceFromStore(*snapshot, i));
  }
  const auto multi = EstimateDistinctMulti(sketches);
  EXPECT_NEAR(est->ht.estimate, multi.ht, 1e-9 * std::fabs(multi.ht) + 1e-9);
  EXPECT_NEAR(est->l.estimate, multi.l, 1e-9 * std::fabs(multi.l) + 1e-9);
}

TEST(QueryServiceTest, DistinctUnionRejectsWeightedIngestion) {
  SketchStoreOptions options;
  options.num_shards = 2;
  options.default_tau = 5.0;
  SketchStore store(options);
  store.Update(0, 1, 50.0);  // heavy: sampled with certainty
  store.Update(1, 2, 50.0);
  const auto est = QueryService(store.Snapshot()).DistinctUnion({0, 1});
  EXPECT_FALSE(est.ok());
}

TEST(QueryServiceTest, SubsetSumMatchesMaterializedSketch) {
  const auto fixture = MakeTwoInstanceStore();
  const auto snapshot = fixture.store->Snapshot();
  QueryService service(snapshot);
  const auto s1 = snapshot->MergedInstance(0);
  auto pred = [](uint64_t key) { return key % 5 != 0; };
  EXPECT_NEAR(service.SubsetSumHt(0, pred), s1.SubsetSumEstimate(pred),
              1e-9 * std::fabs(s1.SubsetSumEstimate(pred)));
}

}  // namespace
}  // namespace pie
