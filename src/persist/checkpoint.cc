#include "persist/checkpoint.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <utility>

#include "engine/engine.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/hashing.h"

namespace pie::persist {

namespace {

/// Persistence instrumentation, registered eagerly on first touch. The
/// checkpoint_bytes gauge tracks the size of the last checkpoint this
/// process wrote; the age gauge is evaluated lazily at dump time.
struct PersistMetrics {
  obs::Histogram& checkpoint_seconds;
  obs::Histogram& recover_seconds;
  obs::Counter& bytes_written;
  obs::Counter& crc_failures;
  obs::Counter& scan_skips;
  obs::Counter& degraded_shards;
  obs::Gauge& checkpoint_bytes;
  std::atomic<int64_t> last_checkpoint_ns{0};

  static PersistMetrics& Get() {
    static PersistMetrics* m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      auto* metrics = new PersistMetrics{
          reg.GetHistogram("pie_persist_checkpoint_seconds",
                           "Wall time of one full checkpoint write",
                           obs::LatencyBuckets()),
          reg.GetHistogram("pie_persist_recover_seconds",
                           "Wall time of one checkpoint recovery",
                           obs::LatencyBuckets()),
          reg.GetCounter("pie_persist_bytes_written_total",
                         "Checkpoint bytes written (shard files + manifests)"),
          reg.GetCounter("pie_persist_crc_failures_total",
                         "Checkpoint files rejected during recovery "
                         "(missing, truncated, or corrupt)"),
          reg.GetCounter("pie_persist_scan_skips_total",
                         "Checkpoint files that vanished or turned "
                         "unreadable mid-scan and were skipped"),
          reg.GetCounter("pie_degraded_shards_total",
                         "Shards marked absent by degraded-mode recovery"),
          reg.GetGauge("pie_persist_checkpoint_bytes",
                       "Size of the last checkpoint written by this process"),
          {}};
      reg.RegisterCallbackGauge(
          "pie_persist_checkpoint_age_seconds",
          "Seconds since this process last wrote a checkpoint (-1 = never)",
          [metrics] {
            const int64_t last =
                metrics->last_checkpoint_ns.load(std::memory_order_relaxed);
            if (last == 0) return -1.0;
            return static_cast<double>(obs::MonotonicNowNs() - last) * 1e-9;
          });
      return metrics;
    }();
    return *m;
  }
};

uint64_t InstanceSaltFromOptions(const SketchStoreOptions& options,
                                 int instance) {
  // Mirrors SketchStore::InstanceSalt (sketch_store.cc) -- validated
  // against recovered sketch headers so a Merge can never trip on a
  // salt mismatch.
  if (options.coordinated) return options.salt;
  return HashCombine(options.salt, static_cast<uint64_t>(instance));
}

double TauFromOptions(const SketchStoreOptions& options, int instance) {
  auto it = options.instance_tau.find(instance);
  return it != options.instance_tau.end() ? it->second : options.default_tau;
}

/// Options equality for merge: bitwise on the doubles, since merged
/// sketches must share the exact tau/salt the PIE_CHECKs in Merge expect.
bool SameStoreOptions(const SketchStoreOptions& a,
                      const SketchStoreOptions& b) {
  if (a.num_shards != b.num_shards || a.salt != b.salt ||
      a.coordinated != b.coordinated ||
      std::bit_cast<uint64_t>(a.default_tau) !=
          std::bit_cast<uint64_t>(b.default_tau) ||
      a.instance_tau.size() != b.instance_tau.size()) {
    return false;
  }
  auto ita = a.instance_tau.begin();
  auto itb = b.instance_tau.begin();
  for (; ita != a.instance_tau.end(); ++ita, ++itb) {
    if (ita->first != itb->first ||
        std::bit_cast<uint64_t>(ita->second) !=
            std::bit_cast<uint64_t>(itb->second)) {
      return false;
    }
  }
  return true;
}

/// Loads and verifies one shard file of generation `seq` against its
/// manifest entry: byte accounting (size + whole-file CRC), shard decode,
/// and per-sketch configuration checks against the manifest's options.
Result<ShardFileData> LoadShard(FileSystem& fs, const std::string& dir,
                                const Manifest& manifest, uint64_t seq,
                                int s) {
  const std::string path =
      dir + "/" + ShardFileName(seq, static_cast<uint32_t>(s));
  auto bytes = ReadFileBytes(fs, path);
  if (!bytes.ok()) return bytes.status();
  const ManifestShardEntry& entry = manifest.shards[static_cast<size_t>(s)];
  if (bytes->size() != entry.file_size ||
      Crc32c(bytes->data(), bytes->size()) != entry.file_crc) {
    return Status::DataLoss("persist: " + path +
                            " disagrees with its manifest entry");
  }
  auto shard = DecodeShardFile(*bytes);
  if (!shard.ok()) return shard.status();
  if (shard->shard_index != static_cast<uint32_t>(s) ||
      shard->num_shards !=
          static_cast<uint32_t>(manifest.options.num_shards) ||
      shard->tier_tag != manifest.tier_tag) {
    return Status::DataLoss("persist: " + path +
                            " header disagrees with its manifest");
  }
  for (const auto& [instance, sketch] : shard->sketches) {
    if (std::bit_cast<uint64_t>(sketch.tau()) !=
            std::bit_cast<uint64_t>(
                TauFromOptions(manifest.options, instance)) ||
        sketch.salt() !=
            InstanceSaltFromOptions(manifest.options, instance)) {
      return Status::DataLoss(
          "persist: " + path +
          " sketch configuration disagrees with the manifest options");
    }
  }
  return shard;
}

/// Loads and fully verifies generation `seq` of `dir`; any missing,
/// truncated, or misconfigured file fails the whole generation.
Result<LoadedCheckpoint> LoadGeneration(FileSystem& fs,
                                        const std::string& dir,
                                        uint64_t seq) {
  auto manifest_bytes =
      ReadFileBytes(fs, dir + "/" + ManifestFileName(seq));
  if (!manifest_bytes.ok()) return manifest_bytes.status();
  auto manifest = DecodeManifest(*manifest_bytes);
  if (!manifest.ok()) return manifest.status();

  LoadedCheckpoint out;
  out.manifest = std::move(manifest).value();
  const int num_shards = out.manifest.options.num_shards;
  out.shards.reserve(static_cast<size_t>(num_shards));
  for (int s = 0; s < num_shards; ++s) {
    auto shard = LoadShard(fs, dir, out.manifest, seq, s);
    if (!shard.ok()) return shard.status();
    out.shards.push_back(std::move(shard).value());
  }
  return out;
}

/// Degraded load of generation `seq`: the manifest must decode, but shard
/// files that fail verification are marked absent rather than failing the
/// generation. DataLoss when not even one shard survives.
Result<LoadedCheckpoint> LoadGenerationDegraded(FileSystem& fs,
                                                const std::string& dir,
                                                uint64_t seq) {
  PersistMetrics& metrics = PersistMetrics::Get();
  auto manifest_bytes =
      ReadFileBytes(fs, dir + "/" + ManifestFileName(seq));
  if (!manifest_bytes.ok()) return manifest_bytes.status();
  auto manifest = DecodeManifest(*manifest_bytes);
  if (!manifest.ok()) return manifest.status();

  LoadedCheckpoint out;
  out.manifest = std::move(manifest).value();
  const int num_shards = out.manifest.options.num_shards;
  out.shards.resize(static_cast<size_t>(num_shards));
  out.shard_absent.assign(static_cast<size_t>(num_shards), 0);
  int present = 0;
  for (int s = 0; s < num_shards; ++s) {
    auto shard = LoadShard(fs, dir, out.manifest, seq, s);
    if (shard.ok()) {
      out.shards[static_cast<size_t>(s)] = std::move(shard).value();
      ++present;
    } else {
      out.shard_absent[static_cast<size_t>(s)] = 1;
      metrics.degraded_shards.Increment();
      if (shard.status().code() == StatusCode::kNotFound) {
        metrics.scan_skips.Increment();
      }
    }
  }
  if (present == 0) {
    return Status::DataLoss("persist: no recoverable shard in generation " +
                            std::to_string(seq) + " of " + dir);
  }
  if (present == num_shards) out.shard_absent.clear();
  return out;
}

FileSystem& ResolveFs(FileSystem* fs) {
  return fs != nullptr ? *fs : FileSystem::Default();
}

/// Parses exactly 16 lowercase hex digits at name[at..at+16).
bool ParseHex16(const std::string& name, size_t at, uint64_t* out) {
  uint64_t value = 0;
  for (size_t i = at; i < at + 16; ++i) {
    const char c = name[i];
    uint64_t digit;
    if (c >= '0' && c <= '9') {
      digit = static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<uint64_t>(c - 'a') + 10;
    } else {
      return false;
    }
    value = (value << 4) | digit;
  }
  *out = value;
  return true;
}

}  // namespace

bool ParseManifestFileName(const std::string& name, uint64_t* seq) {
  // MANIFEST-%016x.pie: fixed width, hex digits only.
  constexpr size_t kLen = 9 + 16 + 4;
  return name.size() == kLen && name.rfind("MANIFEST-", 0) == 0 &&
         name.compare(kLen - 4, 4, ".pie") == 0 &&
         ParseHex16(name, 9, seq);
}

bool ParseShardFileName(const std::string& name, uint64_t* seq,
                        uint32_t* shard) {
  // shard-%016x-%05u.pie: fixed width, hex seq, decimal shard index.
  constexpr size_t kLen = 6 + 16 + 1 + 5 + 4;
  if (name.size() != kLen || name.rfind("shard-", 0) != 0 ||
      name[6 + 16] != '-' || name.compare(kLen - 4, 4, ".pie") != 0 ||
      !ParseHex16(name, 6, seq)) {
    return false;
  }
  uint32_t index = 0;
  for (size_t i = 6 + 16 + 1; i < kLen - 4; ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    index = index * 10 + static_cast<uint32_t>(name[i] - '0');
  }
  *shard = index;
  return true;
}

std::vector<uint64_t> ListManifestSeqs(FileSystem& fs,
                                       const std::string& dir) {
  std::vector<uint64_t> seqs;
  auto names = fs.ListDir(dir);
  if (!names.ok()) return seqs;
  for (const std::string& name : *names) {
    uint64_t seq = 0;
    if (ParseManifestFileName(name, &seq)) seqs.push_back(seq);
  }
  std::sort(seqs.rbegin(), seqs.rend());
  return seqs;
}

std::vector<uint64_t> ListManifestSeqs(const std::string& dir) {
  return ListManifestSeqs(FileSystem::Default(), dir);
}

Status WriteCheckpoint(const StoreSnapshot& snapshot, const std::string& dir,
                       const CheckpointOptions& options) {
  PersistMetrics& metrics = PersistMetrics::Get();
  obs::ScopedSpan span("persist/checkpoint");
  obs::ScopedTimer timer(metrics.checkpoint_seconds);
  if (snapshot.absent_shards() > 0) {
    // A degraded store's absent shards hold no data; persisting it would
    // commit a generation that silently undercounts them.
    return Status::FailedPrecondition(
        "persist: refusing to checkpoint a degraded store (" +
        std::to_string(snapshot.absent_shards()) + " absent shards)");
  }
  FileSystem& fs = ResolveFs(options.fs);
  PIE_RETURN_IF_ERROR(EnsureDirectory(fs, dir));
  const std::vector<uint64_t> existing = ListManifestSeqs(fs, dir);
  const uint64_t seq = existing.empty() ? 1 : existing.front() + 1;

  Manifest manifest;
  manifest.seq = seq;
  manifest.tier_tag = EstimatorTierTag();
  manifest.options = snapshot.options();
  uint64_t total_bytes = 0;
  for (int s = 0; s < snapshot.num_shards(); ++s) {
    const std::string bytes =
        EncodeShardFile(manifest.tier_tag, static_cast<uint32_t>(s),
                        static_cast<uint32_t>(snapshot.num_shards()),
                        snapshot.Shard(s).sketches());
    // Retry only the transient class: WriteFileAtomic is idempotent (the
    // temp file is recreated from scratch), so a re-attempt is safe.
    PIE_RETURN_IF_ERROR(RunWithRetry(options.retry, "write_shard", [&] {
      return WriteFileAtomic(fs, dir,
                             ShardFileName(seq, static_cast<uint32_t>(s)),
                             bytes);
    }));
    manifest.shards.push_back(
        {bytes.size(), Crc32c(bytes.data(), bytes.size())});
    total_bytes += bytes.size();
  }
  // The commit point: recovery only sees the generation once the manifest
  // -- written after every shard file is durable -- decodes clean.
  const std::string manifest_bytes = EncodeManifest(manifest);
  PIE_RETURN_IF_ERROR(RunWithRetry(options.retry, "write_manifest", [&] {
    return WriteFileAtomic(fs, dir, ManifestFileName(seq), manifest_bytes);
  }));
  total_bytes += manifest_bytes.size();
  metrics.bytes_written.Add(total_bytes);
  metrics.checkpoint_bytes.Set(static_cast<double>(total_bytes));
  metrics.last_checkpoint_ns.store(obs::MonotonicNowNs(),
                                   std::memory_order_relaxed);
  return Status::OK();
}

Result<LoadedCheckpoint> LoadLatestCheckpoint(FileSystem& fs,
                                              const std::string& dir) {
  PersistMetrics& metrics = PersistMetrics::Get();
  const std::vector<uint64_t> seqs = ListManifestSeqs(fs, dir);
  if (seqs.empty()) {
    return Status::NotFound("persist: no checkpoint manifest in " + dir);
  }
  std::string newest_error;
  for (const uint64_t seq : seqs) {
    auto loaded = LoadGeneration(fs, dir, seq);
    if (loaded.ok()) return loaded;
    // Fall back to the next older generation: this one is torn or corrupt.
    metrics.crc_failures.Increment();
    if (loaded.status().code() == StatusCode::kNotFound) {
      // A listed file vanished (or turned unreadable) between the scan
      // and the read -- e.g. a concurrent GC. Skip-with-metric, never a
      // hard error.
      metrics.scan_skips.Increment();
    }
    if (newest_error.empty()) newest_error = loaded.status().ToString();
  }
  return Status::DataLoss("persist: no complete checkpoint generation in " +
                          dir + " (newest: " + newest_error + ")");
}

Result<LoadedCheckpoint> LoadLatestCheckpoint(const std::string& dir) {
  return LoadLatestCheckpoint(FileSystem::Default(), dir);
}

Result<LoadedCheckpoint> LoadLatestCheckpointDegraded(
    FileSystem& fs, const std::string& dir) {
  PersistMetrics& metrics = PersistMetrics::Get();
  const std::vector<uint64_t> seqs = ListManifestSeqs(fs, dir);
  if (seqs.empty()) {
    return Status::NotFound("persist: no checkpoint manifest in " + dir);
  }
  std::string newest_error;
  for (const uint64_t seq : seqs) {
    // Freshness over completeness: the newest generation with a decodable
    // manifest and >= 1 verified shard serves. An undecodable manifest
    // still skips the whole generation -- the manifest IS the commit
    // point, degraded mode never serves an uncommitted checkpoint.
    auto loaded = LoadGenerationDegraded(fs, dir, seq);
    if (loaded.ok()) return loaded;
    metrics.crc_failures.Increment();
    if (loaded.status().code() == StatusCode::kNotFound) {
      metrics.scan_skips.Increment();
    }
    if (newest_error.empty()) newest_error = loaded.status().ToString();
  }
  return Status::DataLoss(
      "persist: no generation with a recoverable shard in " + dir +
      " (newest: " + newest_error + ")");
}

std::string ParsePieCheckpointDir(const char* text, bool* invalid) {
  *invalid = true;
  if (text == nullptr) return "";
  const size_t len = std::strlen(text);
  if (len == 0 || len > kMaxCheckpointDirLength) return "";
  for (size_t i = 0; i < len; ++i) {
    const unsigned char c = static_cast<unsigned char>(text[i]);
    if (c < 0x20 || c == 0x7f) return "";  // control characters
  }
  // Strict: no surrounding whitespace (a copy-pasted trailing space would
  // otherwise silently create a different directory).
  if (std::isspace(static_cast<unsigned char>(text[0])) ||
      std::isspace(static_cast<unsigned char>(text[len - 1]))) {
    return "";
  }
  std::string dir(text, len);
  while (dir.size() > 1 && dir.back() == '/') dir.pop_back();
  *invalid = false;
  return dir;
}

std::string ResolveCheckpointDir(const std::string& requested) {
  if (!requested.empty()) return requested;
  static const std::string from_env = [] {
    const char* env = std::getenv("PIE_CHECKPOINT_DIR");
    if (env == nullptr) return std::string();
    bool invalid = false;
    std::string dir = ParsePieCheckpointDir(env, &invalid);
    if (!invalid) return dir;
    obs::MetricsRegistry::Global()
        .GetCounter("pie_config_errors_total",
                    "Invalid configuration values rejected at startup",
                    {{"var", "PIE_CHECKPOINT_DIR"}})
        .Increment();
    std::fprintf(stderr,
                 "pie: ignoring invalid PIE_CHECKPOINT_DIR=\"%s\" (expected "
                 "a plain path, no surrounding whitespace or control "
                 "characters, at most %zu chars); checkpointing disabled\n",
                 env, kMaxCheckpointDirLength);
    return std::string();
  }();
  return from_env;
}

}  // namespace pie::persist

namespace pie {

Status SketchStore::Checkpoint(const std::string& dir) const {
  return persist::WriteCheckpoint(*Snapshot(), dir);
}

Result<std::unique_ptr<SketchStore>> SketchStore::Recover(
    const std::string& dir) {
  return Recover(dir, RecoverOptions{});
}

Result<std::unique_ptr<SketchStore>> SketchStore::Recover(
    const std::string& dir, const RecoverOptions& options) {
  obs::ScopedSpan span("persist/recover");
  obs::ScopedTimer timer(persist::PersistMetrics::Get().recover_seconds);
  FileSystem& fs =
      options.fs != nullptr ? *options.fs : FileSystem::Default();
  auto loaded = options.policy == RecoverPolicy::kDegraded
                    ? persist::LoadLatestCheckpointDegraded(fs, dir)
                    : persist::LoadLatestCheckpoint(fs, dir);
  if (!loaded.ok()) return loaded.status();
  persist::LoadedCheckpoint checkpoint = std::move(loaded).value();

  auto store = std::make_unique<SketchStore>(checkpoint.manifest.options);
  store->shard_absent_ = std::move(checkpoint.shard_absent);
  for (size_t s = 0; s < checkpoint.shards.size(); ++s) {
    if (store->ShardAbsent(static_cast<int>(s))) continue;
    Shard& shard = store->shards_[s];
    uint64_t updates = 0;
    for (auto& [instance, sketch] : checkpoint.shards[s].sketches) {
      updates += sketch.num_updates();
      shard.live.emplace(instance, std::move(sketch));
    }
    // Seed the shard version with the absorbed-update count so snapshot
    // version tags keep advancing monotonically from recovered state.
    shard.version.store(updates, std::memory_order_release);
  }
  return store;
}

Result<std::unique_ptr<SketchStore>> SketchStore::MergeCheckpoints(
    const std::vector<std::string>& dirs) {
  obs::ScopedSpan span("persist/merge");
  if (dirs.empty()) {
    return Status::InvalidArgument(
        "persist: no checkpoint directories to merge");
  }
  std::vector<persist::LoadedCheckpoint> loaded;
  loaded.reserve(dirs.size());
  for (const std::string& dir : dirs) {
    auto one = persist::LoadLatestCheckpoint(dir);
    if (!one.ok()) return one.status();
    loaded.push_back(std::move(one).value());
  }
  for (size_t i = 1; i < loaded.size(); ++i) {
    if (!persist::SameStoreOptions(loaded[0].manifest.options,
                                   loaded[i].manifest.options)) {
      return Status::InvalidArgument(
          "persist: checkpoint store options differ between " + dirs[0] +
          " and " + dirs[i]);
    }
    if (loaded[i].manifest.tier_tag != loaded[0].manifest.tier_tag) {
      return Status::InvalidArgument(
          "persist: mixing estimator tiers across checkpoints (" + dirs[0] +
          " vs " + dirs[i] + ")");
    }
  }

  auto store = std::make_unique<SketchStore>(loaded[0].manifest.options);
  // Directory order IS the logical stream order: folding each directory's
  // per-(shard, instance) sketch in sequence reproduces the entry arrival
  // order of a single process that ingested dirs[0]'s records, then
  // dirs[1]'s, ... -- which is what makes merged query answers bitwise
  // identical to a single-process build.
  for (size_t d = 0; d < loaded.size(); ++d) {
    for (size_t s = 0; s < loaded[d].shards.size(); ++s) {
      Shard& shard = store->shards_[s];
      uint64_t updates = 0;
      for (auto& [instance, sketch] : loaded[d].shards[s].sketches) {
        updates += sketch.num_updates();
        auto it = shard.live.find(instance);
        if (it == shard.live.end()) {
          shard.live.emplace(instance, std::move(sketch));
        } else {
          it->second.Merge(sketch);
        }
      }
      shard.version.fetch_add(updates, std::memory_order_release);
    }
  }
  return store;
}

}  // namespace pie
