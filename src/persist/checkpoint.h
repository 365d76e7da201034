// Checkpoint orchestration: generation-based crash-safe snapshots of a
// SketchStore, recovery with torn-write fallback, and cross-process merge.
//
// A checkpoint *generation* is one manifest plus one file per shard, all
// named by the generation sequence number. Writing order is the crash
// defense: every shard file lands atomically (persist/wire.h) before the
// manifest -- which records each shard file's exact size and CRC32C -- is
// written, also atomically, as the commit point. A generation without a
// decodable manifest, or whose shard files disagree with the manifest's
// byte-accounting, is invisible to recovery; older complete generations in
// the same directory remain as fallbacks and are never deleted here.
//
// Recovery therefore scans manifests newest-first and returns the first
// generation whose every file verifies byte-for-byte. This is exercised
// by the torn-write tests: truncating or bit-flipping any file of the
// newest generation makes recovery land on the previous one.
//
// Merge (SketchStore::MergeCheckpoints) is the distributed path: N
// processes each ingest a disjoint slice of a stream and checkpoint to
// their own directory; merging folds per-(shard, instance) sketches in
// directory order, which reproduces -- bitwise, entry order included --
// the store a single process would have built over the concatenated
// slices (both samplers are exactly mergeable and the store's record
// model is pre-aggregated per key). The determinism gate in
// tests/persist_determinism_test.cc asserts bitwise-identical
// QueryService answers.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "persist/format.h"
#include "persist/retry.h"
#include "store/sketch_store.h"
#include "util/fs.h"
#include "util/status.h"

namespace pie::persist {

/// Per-checkpoint knobs. Defaults are right for production; tests override.
struct CheckpointOptions {
  /// Filesystem all checkpoint I/O goes through; null means
  /// FileSystem::Default(). Tests inject FaultInjectingFs here.
  FileSystem* fs = nullptr;

  /// Retry posture for transient (Unavailable) write failures; defaults
  /// to RetryPolicy's built-in values (RetryPolicy::FromEnv() reads
  /// PIE_PERSIST_RETRIES / PIE_PERSIST_RETRY_BASE_MS instead).
  RetryPolicy retry;
};

/// Writes `snapshot` into `dir` as one new generation: shard files first
/// (each atomic), manifest last. The workhorse behind
/// SketchStore::Checkpoint, also used directly by pie_storectl and by
/// tests that checkpoint a snapshot they already hold.
Status WriteCheckpoint(const StoreSnapshot& snapshot, const std::string& dir,
                       const CheckpointOptions& options = CheckpointOptions());

/// One verified checkpoint generation, decoded. Strict loads verify every
/// shard; a degraded load may mark shards absent instead (shard_absent[s]
/// nonzero, shards[s] default-constructed) -- empty shard_absent means the
/// generation is complete.
struct LoadedCheckpoint {
  Manifest manifest;
  std::vector<ShardFileData> shards;  // index == shard index
  std::vector<uint8_t> shard_absent;  // empty, or one flag per shard
};

/// Loads the newest complete generation in `dir`, skipping generations
/// with missing/truncated/corrupt files (each skip is counted in
/// pie_persist_crc_failures_total; skips whose cause is a file that
/// vanished/unreadable mid-scan additionally count in
/// pie_persist_scan_skips_total). NotFound when `dir` has no manifests;
/// DataLoss when none of them yields a complete generation.
Result<LoadedCheckpoint> LoadLatestCheckpoint(FileSystem& fs,
                                              const std::string& dir);
Result<LoadedCheckpoint> LoadLatestCheckpoint(const std::string& dir);

/// Degraded-mode load: serves the newest generation whose manifest
/// decodes and that has at least one fully verified shard file, marking
/// unrecoverable shards absent (counted in pie_degraded_shards_total)
/// instead of skipping the generation. A generation without a decodable
/// manifest stays invisible exactly as in strict mode -- degraded serving
/// never resurrects an uncommitted checkpoint, it only tolerates committed
/// generations losing shard files afterwards. NotFound when `dir` has no
/// manifests; DataLoss when no generation yields even one shard.
Result<LoadedCheckpoint> LoadLatestCheckpointDegraded(FileSystem& fs,
                                                      const std::string& dir);

/// Manifest sequence numbers present in `dir`, newest first.
std::vector<uint64_t> ListManifestSeqs(FileSystem& fs,
                                       const std::string& dir);
std::vector<uint64_t> ListManifestSeqs(const std::string& dir);

/// Strict parsers of the on-disk generation file names
/// ("MANIFEST-%016x.pie", "shard-%016x-%05u.pie"); false when `name` does
/// not match exactly. Shared by recovery scans and retention GC.
bool ParseManifestFileName(const std::string& name, uint64_t* seq);
bool ParseShardFileName(const std::string& name, uint64_t* seq,
                        uint32_t* shard);

/// Strict parse of a PIE_CHECKPOINT_DIR-style value, mirroring
/// ParsePieThreads: rejects (sets *invalid, returns "") null, empty or
/// whitespace-only text, leading/trailing whitespace, control characters,
/// and paths longer than kMaxCheckpointDirLength; trailing '/' characters
/// are stripped (the root path "/" is kept). Exposed for unit tests;
/// production callers go through ResolveCheckpointDir.
inline constexpr size_t kMaxCheckpointDirLength = 4096;
std::string ParsePieCheckpointDir(const char* text, bool* invalid);

/// Resolves the effective checkpoint directory: a nonempty `requested`
/// (e.g. a --checkpoint-dir flag) wins; otherwise the PIE_CHECKPOINT_DIR
/// environment variable, strictly validated and read once -- an invalid
/// value is rejected with a one-time stderr warning and counted via
/// pie_config_errors_total{var="PIE_CHECKPOINT_DIR"}. Empty result means
/// checkpointing is not configured.
std::string ResolveCheckpointDir(const std::string& requested);

}  // namespace pie::persist
