// Persistence-layer tests: wire primitives, bitwise sketch round-trips,
// checkpoint/recover/merge, torn-write fallback, the exhaustive
// truncation + bit-flip corruption sweep (typed errors, never UB -- run
// under ASan/UBSan in CI), the committed format-v1 golden checkpoint, and
// the PIE_CHECKPOINT_DIR strict-parse matrix.

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "obs/metrics.h"
#include "persist/checkpoint.h"
#include "persist/format.h"
#include "persist/wire.h"
#include "store/query_service.h"
#include "store/sketch_store.h"
#include "store/streaming_sketch.h"
#include "util/random.h"

namespace pie {
namespace {

namespace fs = std::filesystem;

/// A fresh directory private to the running test: ctest runs each test
/// as its own process, in parallel, so tests of one fixture must not share
/// a directory.
std::string FreshDir(const std::string& name) {
  const std::string dir =
      testing::TempDir() + "/persist_" +
      testing::UnitTest::GetInstance()->current_test_info()->name() + "_" +
      name;
  fs::remove_all(dir);
  return dir;
}

std::string Slurp(const std::string& path) {
  auto bytes = persist::ReadFileBytes(path);
  EXPECT_TRUE(bytes.ok()) << path;
  return bytes.ok() ? *bytes : std::string();
}

void Spill(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// A deterministic mixed-weight store: two instances, overlapping keys,
/// some records below threshold (rejected), some repeated keys.
std::unique_ptr<SketchStore> BuildStore(int num_shards = 4) {
  SketchStoreOptions options;
  options.num_shards = num_shards;
  options.default_tau = 8.0;
  options.instance_tau[1] = 2.5;
  options.salt = 77;
  auto store_ptr = std::make_unique<SketchStore>(options);
  SketchStore& store = *store_ptr;
  Rng rng(21);
  for (uint64_t key = 1; key <= 500; ++key) {
    store.Update(0, key, std::ceil(20.0 / (1 + rng.UniformInt(30))));
    if (key % 3 == 0) store.Update(1, key, 1.0 + (key % 7));
  }
  store.Update(0, 42, 3.0);  // repeat arrival accumulates
  store.Update(0, 9001, -1.0);  // nonpositive: counted, never sampled
  return store_ptr;
}

void ExpectSameSnapshots(const StoreSnapshot& a, const StoreSnapshot& b) {
  ASSERT_EQ(a.num_shards(), b.num_shards());
  ASSERT_EQ(a.Instances(), b.Instances());
  for (int s = 0; s < a.num_shards(); ++s) {
    const auto& sa = a.Shard(s).sketches();
    const auto& sb = b.Shard(s).sketches();
    ASSERT_EQ(sa.size(), sb.size()) << "shard " << s;
    auto ita = sa.begin();
    auto itb = sb.begin();
    for (; ita != sa.end(); ++ita, ++itb) {
      EXPECT_EQ(ita->first, itb->first);
      EXPECT_EQ(std::bit_cast<uint64_t>(ita->second.tau()),
                std::bit_cast<uint64_t>(itb->second.tau()));
      EXPECT_EQ(ita->second.salt(), itb->second.salt());
      EXPECT_EQ(ita->second.num_updates(), itb->second.num_updates());
      const auto& ea = ita->second.entries();
      const auto& eb = itb->second.entries();
      ASSERT_EQ(ea.size(), eb.size()) << "shard " << s;
      for (size_t i = 0; i < ea.size(); ++i) {
        // Bitwise, arrival order included.
        EXPECT_EQ(ea[i].key, eb[i].key);
        EXPECT_EQ(std::bit_cast<uint64_t>(ea[i].weight),
                  std::bit_cast<uint64_t>(eb[i].weight));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Wire primitives
// ---------------------------------------------------------------------------

TEST(WireTest, Crc32cKnownAnswer) {
  // The canonical CRC-32C check value (RFC 3720 appendix B.4).
  EXPECT_EQ(persist::Crc32c("123456789", 9), 0xe3069283u);
  EXPECT_EQ(persist::Crc32c("", 0), 0u);
  // Chained partial checksums equal the one-shot checksum.
  const char data[] = "the quick brown fox jumps over the lazy dog";
  const uint32_t whole = persist::Crc32c(data, sizeof(data) - 1);
  const uint32_t part = persist::Crc32c(data + 11, sizeof(data) - 12,
                                        persist::Crc32c(data, 11));
  EXPECT_EQ(whole, part);
}

TEST(WireTest, WriterReaderRoundTripIsBitwise) {
  persist::WireWriter w;
  w.U8(0xab);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I32(-17);
  w.F64(-0.0);       // signed zero survives
  w.F64(1.0 / 3.0);  // non-representable decimal survives
  persist::WireReader r(w.buffer());
  uint8_t u8 = 0;
  uint32_t u32 = 0;
  uint64_t u64 = 0;
  int32_t i32 = 0;
  double neg_zero = 1, third = 0;
  EXPECT_TRUE(r.U8(&u8));
  EXPECT_TRUE(r.U32(&u32));
  EXPECT_TRUE(r.U64(&u64));
  EXPECT_TRUE(r.I32(&i32));
  EXPECT_TRUE(r.F64(&neg_zero));
  EXPECT_TRUE(r.F64(&third));
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i32, -17);
  EXPECT_EQ(std::bit_cast<uint64_t>(neg_zero), std::bit_cast<uint64_t>(-0.0));
  EXPECT_EQ(std::bit_cast<uint64_t>(third),
            std::bit_cast<uint64_t>(1.0 / 3.0));
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_TRUE(r.ok());
}

TEST(WireTest, ReaderOverReadLatchesFailure) {
  persist::WireWriter w;
  w.U32(5);
  persist::WireReader r(w.buffer());
  uint64_t v = 0;
  EXPECT_FALSE(r.U64(&v));  // 8 bytes wanted, 4 present
  EXPECT_EQ(v, 0u);         // output zeroed, not stale
  EXPECT_FALSE(r.ok());
  uint32_t u = 1;
  EXPECT_FALSE(r.U32(&u));  // latched: even in-bounds reads now fail
  EXPECT_EQ(u, 0u);
}

// ---------------------------------------------------------------------------
// Sketch block round-trips
// ---------------------------------------------------------------------------

TEST(FormatTest, PpsSketchRoundTripIsBitwise) {
  StreamingPpsSketch sketch(3.5, 99);
  Rng rng(5);
  for (uint64_t key = 1; key <= 400; ++key) {
    sketch.Update(key, std::ceil(10.0 / (1 + rng.UniformInt(20))));
  }
  sketch.Update(7, 2.25);  // accumulate a repeat

  persist::WireWriter w;
  persist::SerializePpsSketch(sketch, 3, &w);
  persist::WireReader r(w.buffer());
  auto decoded = persist::DeserializePpsSketch(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->first, 3);
  const StreamingPpsSketch& got = decoded->second;
  EXPECT_EQ(std::bit_cast<uint64_t>(got.tau()),
            std::bit_cast<uint64_t>(sketch.tau()));
  EXPECT_EQ(got.salt(), sketch.salt());
  EXPECT_EQ(got.num_updates(), sketch.num_updates());
  ASSERT_EQ(got.entries().size(), sketch.entries().size());
  for (size_t i = 0; i < got.entries().size(); ++i) {
    EXPECT_EQ(got.entries()[i].key, sketch.entries()[i].key);
    EXPECT_EQ(std::bit_cast<uint64_t>(got.entries()[i].weight),
              std::bit_cast<uint64_t>(sketch.entries()[i].weight));
  }
  // Lookup index rebuilt correctly.
  double value = 0;
  EXPECT_TRUE(got.Lookup(7, &value));
  // Re-encoding the decoded sketch reproduces the identical bytes.
  persist::WireWriter again;
  persist::SerializePpsSketch(got, 3, &again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(FormatTest, RecoveredPpsSketchContinuesExactly) {
  StreamingPpsSketch sketch(2.0, 11);
  for (uint64_t key = 1; key <= 100; ++key) sketch.Update(key, 1.5);
  persist::WireWriter w;
  persist::SerializePpsSketch(sketch, 0, &w);
  persist::WireReader r(w.buffer());
  auto decoded = persist::DeserializePpsSketch(&r);
  ASSERT_TRUE(decoded.ok());
  // Feeding the same continuation to both must keep them identical.
  for (uint64_t key = 101; key <= 200; ++key) {
    sketch.Update(key, 3.0);
    decoded->second.Update(key, 3.0);
  }
  ASSERT_EQ(decoded->second.entries().size(), sketch.entries().size());
  EXPECT_EQ(decoded->second.num_updates(), sketch.num_updates());
  for (size_t i = 0; i < sketch.entries().size(); ++i) {
    EXPECT_EQ(decoded->second.entries()[i].key, sketch.entries()[i].key);
  }
}

TEST(FormatTest, BottomkSketchRoundTripIsBitwise) {
  StreamingBottomkSketch sketch(16, RankFamily::kExp, 123);
  Rng rng(9);
  for (uint64_t key = 1; key <= 300; ++key) {
    sketch.Update(key, 1.0 + rng.UniformInt(50));
  }
  persist::WireWriter w;
  persist::SerializeBottomkSketch(sketch, &w);
  persist::WireReader r(w.buffer());
  auto decoded = persist::DeserializeBottomkSketch(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->k(), sketch.k());
  EXPECT_EQ(decoded->family(), sketch.family());
  EXPECT_EQ(decoded->salt(), sketch.salt());
  EXPECT_EQ(decoded->num_updates(), sketch.num_updates());
  ASSERT_EQ(decoded->pending().size(), sketch.pending().size());
  for (size_t i = 0; i < sketch.pending().size(); ++i) {
    EXPECT_EQ(decoded->pending()[i].key, sketch.pending()[i].key);
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded->pending()[i].weight),
              std::bit_cast<uint64_t>(sketch.pending()[i].weight));
    // Ranks recomputed on load must be the identical bits.
    EXPECT_EQ(std::bit_cast<uint64_t>(decoded->pending()[i].rank),
              std::bit_cast<uint64_t>(sketch.pending()[i].rank));
  }
  const BottomKSketch a = sketch.Finalize();
  const BottomKSketch b = decoded->Finalize();
  ASSERT_EQ(a.entries.size(), b.entries.size());
  EXPECT_EQ(std::bit_cast<uint64_t>(a.threshold),
            std::bit_cast<uint64_t>(b.threshold));
  persist::WireWriter again;
  persist::SerializeBottomkSketch(*decoded, &again);
  EXPECT_EQ(again.buffer(), w.buffer());
}

TEST(FormatTest, ManifestRoundTrip) {
  persist::Manifest manifest;
  manifest.seq = 42;
  manifest.tier_tag = 1;
  manifest.options.num_shards = 3;
  manifest.options.default_tau = 0.125;
  manifest.options.salt = 0xfeedface;
  manifest.options.coordinated = true;
  manifest.options.instance_tau = {{0, 2.0}, {5, 1.0 / 3.0}};
  manifest.shards = {{100, 1}, {200, 2}, {300, 3}};
  const std::string bytes = persist::EncodeManifest(manifest);
  auto decoded = persist::DecodeManifest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->seq, 42u);
  EXPECT_EQ(decoded->tier_tag, 1u);
  EXPECT_EQ(decoded->options.num_shards, 3);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->options.default_tau),
            std::bit_cast<uint64_t>(0.125));
  EXPECT_EQ(decoded->options.salt, 0xfeedfaceu);
  EXPECT_TRUE(decoded->options.coordinated);
  ASSERT_EQ(decoded->options.instance_tau.size(), 2u);
  EXPECT_EQ(std::bit_cast<uint64_t>(decoded->options.instance_tau[5]),
            std::bit_cast<uint64_t>(1.0 / 3.0));
  ASSERT_EQ(decoded->shards.size(), 3u);
  EXPECT_EQ(decoded->shards[2].file_size, 300u);
  EXPECT_EQ(persist::EncodeManifest(*decoded), bytes);
}

// ---------------------------------------------------------------------------
// Checkpoint / recover / merge
// ---------------------------------------------------------------------------

TEST(CheckpointTest, RecoverReproducesTheStoreBitwise) {
  const std::string dir = FreshDir("roundtrip");
  auto store_ptr = BuildStore();
  SketchStore& store = *store_ptr;
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  auto recovered = SketchStore::Recover(dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameSnapshots(*store.Snapshot(), *(*recovered)->Snapshot());

  // Query answers over the recovered store are the identical bits.
  QueryService before(store.Snapshot());
  QueryService after((*recovered)->Snapshot());
  const auto b = before.MaxDominance(0, 1);
  const auto a = after.MaxDominance(0, 1);
  ASSERT_TRUE(b.ok());
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(std::bit_cast<uint64_t>(b->l.estimate),
            std::bit_cast<uint64_t>(a->l.estimate));
  EXPECT_EQ(std::bit_cast<uint64_t>(b->l.lo), std::bit_cast<uint64_t>(a->l.lo));
  EXPECT_EQ(std::bit_cast<uint64_t>(b->l.hi), std::bit_cast<uint64_t>(a->l.hi));
  EXPECT_EQ(std::bit_cast<uint64_t>(b->ht.estimate),
            std::bit_cast<uint64_t>(a->ht.estimate));
}

TEST(CheckpointTest, RecoveredStoreKeepsIngesting) {
  const std::string dir = FreshDir("continue");
  auto store_ptr = BuildStore();
  SketchStore& store = *store_ptr;
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  auto recovered = SketchStore::Recover(dir);
  ASSERT_TRUE(recovered.ok());
  for (uint64_t key = 1000; key < 1100; ++key) {
    store.Update(0, key, 12.0);
    (*recovered)->Update(0, key, 12.0);
  }
  ExpectSameSnapshots(*store.Snapshot(), *(*recovered)->Snapshot());
}

TEST(CheckpointTest, NewestGenerationWinsAndSeqsAdvance) {
  const std::string dir = FreshDir("generations");
  auto store_ptr = BuildStore();
  SketchStore& store = *store_ptr;
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  store.Update(0, 777777, 100.0);
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  const auto seqs = persist::ListManifestSeqs(dir);
  ASSERT_EQ(seqs.size(), 2u);
  EXPECT_EQ(seqs[0], 2u);
  EXPECT_EQ(seqs[1], 1u);
  auto recovered = SketchStore::Recover(dir);
  ASSERT_TRUE(recovered.ok());
  double value = 0;
  EXPECT_TRUE(
      (*recovered)->Snapshot()->MergedInstance(0).Lookup(777777, &value));
  EXPECT_EQ(value, 100.0);
}

TEST(CheckpointTest, TornWriteFallsBackToLastCompleteGeneration) {
  const std::string dir = FreshDir("torn");
  auto store_ptr = BuildStore();
  SketchStore& store = *store_ptr;
  ASSERT_TRUE(store.Checkpoint(dir).ok());  // generation 1: complete
  store.Update(0, 777777, 100.0);
  ASSERT_TRUE(store.Checkpoint(dir).ok());  // generation 2: will be torn

  // Tear generation 2 three different ways; each must fall back to gen 1.
  const std::string manifest2 = dir + "/" + persist::ManifestFileName(2);
  const std::string shard2 = dir + "/" + persist::ShardFileName(2, 1);
  const std::string manifest_bytes = Slurp(manifest2);
  const std::string shard_bytes = Slurp(shard2);

  // (a) truncated manifest (crash during the final rename's predecessor).
  Spill(manifest2, manifest_bytes.substr(0, manifest_bytes.size() / 2));
  // (b) also try after restoring: a bit-flipped shard payload.
  for (int variant = 0; variant < 3; ++variant) {
    if (variant == 1) {
      Spill(manifest2, manifest_bytes);  // manifest intact again...
      std::string flipped = shard_bytes;
      flipped[flipped.size() / 2] ^= 0x40;  // ...but a shard byte flipped
      Spill(shard2, flipped);
    } else if (variant == 2) {
      fs::remove(shard2);  // shard file missing entirely
    }
    auto recovered = SketchStore::Recover(dir);
    ASSERT_TRUE(recovered.ok()) << "variant " << variant << ": "
                                << recovered.status().ToString();
    double value = 0;
    EXPECT_FALSE(
        (*recovered)->Snapshot()->MergedInstance(0).Lookup(777777, &value))
        << "variant " << variant << " served the torn generation";
  }

  // With generation 1 torn too, recovery reports DataLoss...
  const std::string manifest1 = dir + "/" + persist::ManifestFileName(1);
  Spill(manifest1, std::string("garbage"));
  auto dead = SketchStore::Recover(dir);
  ASSERT_FALSE(dead.ok());
  EXPECT_EQ(dead.status().code(), StatusCode::kDataLoss);
  // ...and an empty directory reports NotFound.
  auto empty = SketchStore::Recover(FreshDir("empty"));
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kNotFound);
}

TEST(CheckpointTest, MergeRejectsMismatchedOptions) {
  const std::string dir_a = FreshDir("mismatch_a");
  const std::string dir_b = FreshDir("mismatch_b");
  SketchStoreOptions options;
  options.num_shards = 4;
  options.default_tau = 2.0;
  options.salt = 1;
  SketchStore a(options);
  a.Update(0, 1, 10.0);
  ASSERT_TRUE(a.Checkpoint(dir_a).ok());
  options.salt = 2;  // different seeds: merging would be meaningless
  SketchStore b(options);
  b.Update(0, 2, 10.0);
  ASSERT_TRUE(b.Checkpoint(dir_b).ok());
  auto merged = SketchStore::MergeCheckpoints({dir_a, dir_b});
  ASSERT_FALSE(merged.ok());
  EXPECT_EQ(merged.status().code(), StatusCode::kInvalidArgument);
}

#ifdef PIE_METRICS
TEST(CheckpointTest, TornRecoveryCountsCrcFailures) {
  const std::string dir = FreshDir("crc_metric");
  auto store_ptr = BuildStore();
  SketchStore& store = *store_ptr;
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  ASSERT_TRUE(store.Checkpoint(dir).ok());
  const std::string manifest2 = dir + "/" + persist::ManifestFileName(2);
  std::string bytes = Slurp(manifest2);
  bytes[bytes.size() - 1] ^= 0xff;
  Spill(manifest2, bytes);

  const auto before = obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricValue* v0 =
      before.Find("pie_persist_crc_failures_total", {});
  const double base = v0 != nullptr ? v0->value : 0.0;
  ASSERT_TRUE(SketchStore::Recover(dir).ok());  // falls back to gen 1
  const auto after = obs::MetricsRegistry::Global().Snapshot();
  const obs::MetricValue* v1 =
      after.Find("pie_persist_crc_failures_total", {});
  ASSERT_NE(v1, nullptr);
  EXPECT_GE(v1->value, base + 1.0);
  EXPECT_GT(after.SumValues("pie_persist_bytes_written_total"), 0.0);
}
#endif  // PIE_METRICS

// ---------------------------------------------------------------------------
// Corruption sweep: every truncation and every bit flip of a real shard
// file and manifest must yield a clean typed error -- no crash, no UB.
// ---------------------------------------------------------------------------

class CorruptionSweepTest : public testing::Test {
 protected:
  void SetUp() override {
    const std::string dir = FreshDir("sweep");
    SketchStoreOptions options;
    options.num_shards = 2;
    options.default_tau = 4.0;
    options.salt = 3;
    SketchStore store(options);
    for (uint64_t key = 1; key <= 60; ++key) {
      store.Update(0, key, static_cast<double>(1 + key % 9));
      if (key % 2 == 0) store.Update(1, key, 5.0);
    }
    ASSERT_TRUE(store.Checkpoint(dir).ok());
    shard_bytes_ = Slurp(dir + "/" + persist::ShardFileName(1, 0));
    manifest_bytes_ = Slurp(dir + "/" + persist::ManifestFileName(1));
    ASSERT_GT(shard_bytes_.size(), 100u);
  }

  std::string shard_bytes_;
  std::string manifest_bytes_;
};

TEST_F(CorruptionSweepTest, EveryTruncationIsATypedError) {
  for (size_t len = 0; len < shard_bytes_.size(); ++len) {
    auto decoded = persist::DecodeShardFile(shard_bytes_.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "truncation to " << len << " decoded";
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << len;
  }
  for (size_t len = 0; len < manifest_bytes_.size(); ++len) {
    auto decoded = persist::DecodeManifest(manifest_bytes_.substr(0, len));
    ASSERT_FALSE(decoded.ok()) << "truncation to " << len << " decoded";
  }
}

TEST_F(CorruptionSweepTest, EveryBitFlipIsATypedError) {
  // The file CRC covers every byte, so any single flipped bit -- header,
  // counts, slabs, CRCs, footer -- must be rejected, never crash.
  for (size_t off = 0; off < shard_bytes_.size(); ++off) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string corrupt = shard_bytes_;
      corrupt[off] ^= bit;
      auto decoded = persist::DecodeShardFile(corrupt);
      ASSERT_FALSE(decoded.ok())
          << "flip of bit " << int{bit} << " at offset " << off << " decoded";
      EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << off;
    }
  }
  for (size_t off = 0; off < manifest_bytes_.size(); ++off) {
    std::string corrupt = manifest_bytes_;
    corrupt[off] ^= 0x10;
    auto decoded = persist::DecodeManifest(corrupt);
    ASSERT_FALSE(decoded.ok()) << "manifest flip at offset " << off;
  }
}

TEST_F(CorruptionSweepTest, SketchBlockSweepWithFixedUpFraming) {
  // Deeper than the file CRC: drive the *block* decoder directly over
  // truncations of a raw PPS block, exercising the per-slab CRCs and
  // count-vs-remaining bounds without the footer's whole-file shield.
  StreamingPpsSketch sketch(2.0, 7);
  for (uint64_t key = 1; key <= 50; ++key) sketch.Update(key, 4.0);
  persist::WireWriter w;
  persist::SerializePpsSketch(sketch, 0, &w);
  const std::string block = w.buffer();
  for (size_t len = 0; len < block.size(); ++len) {
    // WireReader holds a view; the truncated copy must outlive it.
    const std::string truncated = block.substr(0, len);
    persist::WireReader r(truncated);
    auto decoded = persist::DeserializePpsSketch(&r);
    ASSERT_FALSE(decoded.ok()) << "block truncation to " << len;
    EXPECT_EQ(decoded.status().code(), StatusCode::kDataLoss) << len;
  }
}

// ---------------------------------------------------------------------------
// Format v1 golden checkpoint: the committed bytes pin the wire format.
// ---------------------------------------------------------------------------

/// The fixed workload behind tests/golden/checkpoint_v1 (and the
/// generator tool below). Integer-valued weights and hash-derived seeds
/// only -- no estimator arithmetic -- and the header's tier tag is always
/// 0, so the bytes are identical across PIE_SIMD / PIE_METRICS /
/// thread-count configurations.
std::unique_ptr<SketchStore> BuildGoldenStore() {
  SketchStoreOptions options;
  options.num_shards = 2;
  options.default_tau = 4.0;
  options.instance_tau[1] = 2.0;
  options.salt = 2011;  // PODS 2011
  auto store = std::make_unique<SketchStore>(options);
  for (uint64_t key = 1; key <= 64; ++key) {
    store->Update(0, key, static_cast<double>(1 + (key * 7) % 11));
    if (key % 2 == 0) store->Update(1, key, static_cast<double>(key));
  }
  return store;
}

TEST(GoldenCheckpointTest, CommittedBytesAreReproducedExactly) {
  const std::string golden_dir =
      std::string(PIE_TEST_SOURCE_DIR) + "/tests/golden/checkpoint_v1";
  const std::string dir = FreshDir("golden");
  auto store_ptr = BuildGoldenStore();
  SketchStore& store = *store_ptr;
  ASSERT_TRUE(persist::WriteCheckpoint(*store.Snapshot(), dir).ok());
  const std::vector<std::string> files = {
      persist::ManifestFileName(1), persist::ShardFileName(1, 0),
      persist::ShardFileName(1, 1)};
  for (const std::string& file : files) {
    const std::string want = Slurp(golden_dir + "/" + file);
    const std::string got = Slurp(dir + "/" + file);
    ASSERT_FALSE(want.empty())
        << "missing golden file " << file
        << " (regenerate: persist_test --gtest_also_run_disabled_tests "
           "--gtest_filter=*RegenerateGolden*)";
    EXPECT_EQ(got, want) << file
                         << ": wire format drifted from committed v1 bytes; "
                            "bump kFormatVersion instead of mutating v1";
  }
  // And the committed bytes must still recover, bitwise.
  auto recovered = SketchStore::Recover(golden_dir);
  ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
  ExpectSameSnapshots(*store.Snapshot(), *(*recovered)->Snapshot());
}

/// Not a test: regenerates the committed golden checkpoint in the source
/// tree. Run manually after an *intentional* format-version bump.
TEST(GoldenCheckpointTest, DISABLED_RegenerateGolden) {
  const std::string golden_dir =
      std::string(PIE_TEST_SOURCE_DIR) + "/tests/golden/checkpoint_v1";
  fs::remove_all(golden_dir);
  auto store_ptr = BuildGoldenStore();
  SketchStore& store = *store_ptr;
  ASSERT_TRUE(persist::WriteCheckpoint(*store.Snapshot(), golden_dir).ok());
}

// ---------------------------------------------------------------------------
// PIE_CHECKPOINT_DIR strict parsing
// ---------------------------------------------------------------------------

TEST(CheckpointDirParseTest, AcceptsPlainPaths) {
  struct Case {
    const char* text;
    const char* want;
  };
  const Case cases[] = {
      {"/var/lib/pie", "/var/lib/pie"},
      {"relative/dir", "relative/dir"},
      {".", "."},
      {"/", "/"},                      // root survives slash-stripping
      {"/data/ckpt/", "/data/ckpt"},   // trailing slash normalized
      {"/data/ckpt///", "/data/ckpt"},
      {"dir with spaces", "dir with spaces"},  // interior spaces are fine
  };
  for (const Case& c : cases) {
    bool invalid = true;
    const std::string got = persist::ParsePieCheckpointDir(c.text, &invalid);
    EXPECT_FALSE(invalid) << "\"" << c.text << "\"";
    EXPECT_EQ(got, c.want) << "\"" << c.text << "\"";
  }
}

TEST(CheckpointDirParseTest, RejectsGarbage) {
  std::vector<std::string> bad = {
      "",        " ",      "   ",     "\t",      "\n",
      " /data",  "/data ", "/data\t", "bad\ndir", "ctrl\x01char"};
  bad.push_back(std::string(persist::kMaxCheckpointDirLength + 1, 'a'));
  for (const std::string& text : bad) {
    bool invalid = false;
    const std::string got =
        persist::ParsePieCheckpointDir(text.c_str(), &invalid);
    EXPECT_TRUE(invalid) << "\"" << text << "\" accepted as \"" << got << "\"";
    EXPECT_TRUE(got.empty());
  }
  bool invalid = false;
  EXPECT_EQ(persist::ParsePieCheckpointDir(nullptr, &invalid), "");
  EXPECT_TRUE(invalid);
  // The longest legal path is accepted.
  const std::string max_len(persist::kMaxCheckpointDirLength, 'a');
  invalid = true;
  EXPECT_EQ(persist::ParsePieCheckpointDir(max_len.c_str(), &invalid),
            max_len);
  EXPECT_FALSE(invalid);
}

TEST(CheckpointDirParseTest, ExplicitRequestBeatsEnvironment) {
  EXPECT_EQ(persist::ResolveCheckpointDir("/explicit/dir"), "/explicit/dir");
}

}  // namespace
}  // namespace pie
