#include "persist/format.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>

#include "sampling/rank.h"
#include "util/hashing.h"

namespace pie::persist {

namespace {

Status Corrupt(const std::string& what) {
  return Status::DataLoss("persist: " + what);
}

bool ByRank(const BottomKSketch::Entry& a, const BottomKSketch::Entry& b) {
  return a.rank < b.rank;
}

/// Reads one `count x u64` keys slab + one `count x f64` weights slab,
/// each followed by its CRC, into `out` (keys then weights). The caller
/// has already bounded `count` against remaining().
bool ReadSlabs(WireReader* r, uint64_t count,
               std::vector<WeightedItem>* out) {
  out->resize(count);
  size_t from = r->offset();
  for (auto& item : *out) r->U64(&item.key);
  const uint32_t keys_crc_actual = r->CrcOver(from);
  uint32_t keys_crc = 0;
  r->U32(&keys_crc);
  from = r->offset();
  for (auto& item : *out) r->F64(&item.weight);
  const uint32_t weights_crc_actual = r->CrcOver(from);
  uint32_t weights_crc = 0;
  r->U32(&weights_crc);
  return r->ok() && keys_crc == keys_crc_actual &&
         weights_crc == weights_crc_actual;
}

void WriteSlabs(const std::vector<WeightedItem>& items, WireWriter* w) {
  size_t from = w->size();
  for (const auto& item : items) w->U64(item.key);
  w->U32(w->CrcSince(from));
  from = w->size();
  for (const auto& item : items) w->F64(item.weight);
  w->U32(w->CrcSince(from));
}

}  // namespace

void WriteFileHeader(uint32_t file_type, uint32_t tier_tag, WireWriter* w) {
  const size_t from = w->size();
  w->U64(kMagic);
  w->U32(kFormatVersion);
  w->U32(file_type);
  w->U32(tier_tag);
  w->U32(w->CrcSince(from));
}

Result<FileHeader> ReadFileHeader(WireReader* r) {
  const size_t from = r->offset();
  uint64_t magic = 0;
  FileHeader header;
  r->U64(&magic);
  r->U32(&header.version);
  r->U32(&header.file_type);
  r->U32(&header.tier_tag);
  const uint32_t crc_actual = r->CrcOver(from);
  uint32_t crc = 0;
  if (!r->U32(&crc)) return Corrupt("file too short for header");
  if (magic != kMagic) return Corrupt("bad magic (not a PIEPRST1 file)");
  if (crc != crc_actual) return Corrupt("header CRC mismatch");
  if (header.version != kFormatVersion) {
    return Corrupt("unsupported format version " +
                   std::to_string(header.version));
  }
  if (header.file_type != kFileTypeShard &&
      header.file_type != kFileTypeManifest) {
    return Corrupt("unknown file type " + std::to_string(header.file_type));
  }
  return header;
}

void WriteFooter(WireWriter* w) {
  w->U32(kTagFoot);
  w->U64(static_cast<uint64_t>(w->size()) - 4);  // body excludes the tag
  w->U32(w->CrcSince(0));
}

Status VerifyFileIntegrity(std::string_view file) {
  constexpr size_t kFooterSize = 16;  // tag u32 + body len u64 + crc u32
  if (file.size() < kFooterSize) return Corrupt("file too short for footer");
  WireReader r(file.substr(file.size() - kFooterSize));
  uint32_t tag = 0, crc = 0;
  uint64_t body_len = 0;
  r.U32(&tag);
  r.U64(&body_len);
  r.U32(&crc);
  if (tag != kTagFoot) return Corrupt("missing footer (truncated file?)");
  if (body_len != file.size() - kFooterSize) {
    return Corrupt("footer body length disagrees with file size");
  }
  if (crc != Crc32c(file.data(), file.size() - 4)) {
    return Corrupt("file CRC mismatch");
  }
  return Status::OK();
}

void SerializePpsSketch(const StreamingPpsSketch& sketch, int instance,
                        WireWriter* w) {
  w->U32(kTagPps);
  w->I32(instance);
  w->F64(sketch.tau());
  w->U64(sketch.salt());
  w->U64(sketch.num_updates());
  w->U64(static_cast<uint64_t>(sketch.entries().size()));
  WriteSlabs(sketch.entries(), w);
}

Result<std::pair<int, StreamingPpsSketch>> DeserializePpsSketch(
    WireReader* r) {
  uint32_t tag = 0;
  int32_t instance = 0;
  double tau = 0;
  uint64_t salt = 0, num_updates = 0, entry_count = 0;
  r->U32(&tag);
  r->I32(&instance);
  r->F64(&tau);
  r->U64(&salt);
  r->U64(&num_updates);
  if (!r->U64(&entry_count)) return Corrupt("truncated PPS block header");
  if (tag != kTagPps) return Corrupt("bad PPS block tag");
  // Bound the allocation by the bytes actually present: each entry needs
  // 16 slab bytes, so a corrupted count can never trigger a huge resize.
  if (entry_count > r->remaining() / 16) {
    return Corrupt("PPS entry count exceeds remaining bytes");
  }
  if (entry_count > num_updates) {
    return Corrupt("PPS block with more entries than updates");
  }
  std::vector<WeightedItem> entries;
  if (!ReadSlabs(r, entry_count, &entries)) {
    return Corrupt("PPS slab truncated or CRC mismatch");
  }
  // FromParts checks the sketch invariants (valid tau, distinct keys,
  // finite positive weights at or above each key's inclusion threshold)
  // while it builds the key index, so corrupt or crafted (CRC-fixed-up)
  // blocks get a typed error.
  auto sketch =
      StreamingPpsSketch::FromParts(tau, salt, entries, num_updates);
  if (!sketch.ok()) return Corrupt(sketch.status().message());
  return std::make_pair(static_cast<int>(instance), std::move(*sketch));
}

void SerializeBottomkSketch(const StreamingBottomkSketch& sketch,
                            WireWriter* w) {
  w->U32(kTagBtk);
  w->I32(sketch.k());
  w->U32(static_cast<uint32_t>(sketch.family()));
  w->U64(sketch.salt());
  w->U64(sketch.num_updates());
  w->U64(static_cast<uint64_t>(sketch.pending().size()));
  // Reuse the keys/weights slab shape; ranks are recomputed on load.
  std::vector<WeightedItem> items;
  items.reserve(sketch.pending().size());
  for (const auto& slot : sketch.pending()) {
    items.push_back({slot.key, slot.weight});
  }
  WriteSlabs(items, w);
}

Result<StreamingBottomkSketch> DeserializeBottomkSketch(WireReader* r) {
  uint32_t tag = 0, family_raw = 0;
  int32_t k = 0;
  uint64_t salt = 0, num_updates = 0, slot_count = 0;
  r->U32(&tag);
  r->I32(&k);
  r->U32(&family_raw);
  r->U64(&salt);
  r->U64(&num_updates);
  if (!r->U64(&slot_count)) return Corrupt("truncated bottom-k block header");
  if (tag != kTagBtk) return Corrupt("bad bottom-k block tag");
  if (k <= 0) return Corrupt("bottom-k block with k <= 0");
  if (family_raw > static_cast<uint32_t>(RankFamily::kExp)) {
    return Corrupt("bottom-k block with unknown rank family");
  }
  const RankFamily family = static_cast<RankFamily>(family_raw);
  if (slot_count > static_cast<uint64_t>(k) + 1) {
    return Corrupt("bottom-k block with more than k+1 slots");
  }
  if (slot_count > r->remaining() / 16 || slot_count > num_updates) {
    return Corrupt("bottom-k slot count exceeds remaining bytes or updates");
  }
  std::vector<WeightedItem> items;
  if (!ReadSlabs(r, slot_count, &items)) {
    return Corrupt("bottom-k slab truncated or CRC mismatch");
  }
  const SeedFunction seed(salt);
  std::unordered_set<uint64_t> keys;
  keys.reserve(items.size());
  std::vector<BottomKSketch::Entry> slots;
  slots.reserve(items.size());
  for (const auto& item : items) {
    if (!keys.insert(item.key).second) {
      return Corrupt("bottom-k block with duplicate key");
    }
    if (!IsSampleableWeight(item.weight)) {
      return Corrupt("bottom-k slot with nonpositive weight");
    }
    slots.push_back(
        {item.key, item.weight, RankValue(family, item.weight, seed(item.key))});
  }
  if (!std::is_heap(slots.begin(), slots.end(), ByRank)) {
    return Corrupt("bottom-k slots are not in heap order");
  }
  return StreamingBottomkSketch::FromParts(k, family, salt, std::move(slots),
                                           num_updates);
}

std::string EncodeShardFile(
    uint32_t tier_tag, uint32_t shard_index, uint32_t num_shards,
    const std::map<int, StreamingPpsSketch>& sketches) {
  WireWriter w;
  WriteFileHeader(kFileTypeShard, tier_tag, &w);
  w.U32(shard_index);
  w.U32(num_shards);
  w.U64(static_cast<uint64_t>(sketches.size()));
  for (const auto& [instance, sketch] : sketches) {
    SerializePpsSketch(sketch, instance, &w);
  }
  WriteFooter(&w);
  return w.Take();
}

Result<ShardFileData> DecodeShardFile(std::string_view file) {
  if (Status s = VerifyFileIntegrity(file); !s.ok()) return s;
  WireReader r(file);
  auto header = ReadFileHeader(&r);
  if (!header.ok()) return header.status();
  if (header->file_type != kFileTypeShard) {
    return Corrupt("expected a shard file");
  }
  ShardFileData data;
  data.tier_tag = header->tier_tag;
  uint64_t sketch_count = 0;
  r.U32(&data.shard_index);
  r.U32(&data.num_shards);
  if (!r.U64(&sketch_count)) return Corrupt("truncated shard file header");
  if (data.num_shards == 0 || data.shard_index >= data.num_shards) {
    return Corrupt("shard file with out-of-range shard index");
  }
  // A PPS block is at least 48 bytes (header + two slab CRCs).
  if (sketch_count > r.remaining() / 48) {
    return Corrupt("shard sketch count exceeds remaining bytes");
  }
  data.sketches.reserve(sketch_count);
  for (uint64_t i = 0; i < sketch_count; ++i) {
    auto sketch = DeserializePpsSketch(&r);
    if (!sketch.ok()) return sketch.status();
    if (!data.sketches.empty() &&
        sketch->first <= data.sketches.back().first) {
      return Corrupt("shard instances out of order");
    }
    data.sketches.push_back(std::move(sketch).value());
  }
  if (r.remaining() != 16) {  // exactly the footer must remain
    return Corrupt("trailing bytes after last shard sketch");
  }
  return data;
}

std::string EncodeManifest(const Manifest& manifest) {
  WireWriter w;
  WriteFileHeader(kFileTypeManifest, manifest.tier_tag, &w);
  w.U64(manifest.seq);
  w.I32(manifest.options.num_shards);
  w.F64(manifest.options.default_tau);
  w.U64(manifest.options.salt);
  w.U32(manifest.options.coordinated ? 1 : 0);
  w.U64(static_cast<uint64_t>(manifest.options.instance_tau.size()));
  for (const auto& [instance, tau] : manifest.options.instance_tau) {
    w.I32(instance);
    w.F64(tau);
  }
  for (const auto& shard : manifest.shards) {
    w.U64(shard.file_size);
    w.U32(shard.file_crc);
  }
  WriteFooter(&w);
  return w.Take();
}

Result<Manifest> DecodeManifest(std::string_view file) {
  if (Status s = VerifyFileIntegrity(file); !s.ok()) return s;
  WireReader r(file);
  auto header = ReadFileHeader(&r);
  if (!header.ok()) return header.status();
  if (header->file_type != kFileTypeManifest) {
    return Corrupt("expected a manifest file");
  }
  Manifest manifest;
  manifest.tier_tag = header->tier_tag;
  uint32_t coordinated = 0;
  uint64_t override_count = 0;
  r.U64(&manifest.seq);
  r.I32(&manifest.options.num_shards);
  r.F64(&manifest.options.default_tau);
  r.U64(&manifest.options.salt);
  r.U32(&coordinated);
  if (!r.U64(&override_count)) return Corrupt("truncated manifest header");
  if (manifest.options.num_shards <= 0) {
    return Corrupt("manifest with nonpositive shard count");
  }
  if (!(manifest.options.default_tau > 0) ||
      !std::isfinite(manifest.options.default_tau)) {
    return Corrupt("manifest with invalid default tau");
  }
  if (coordinated > 1) return Corrupt("manifest with invalid coordinated flag");
  manifest.options.coordinated = coordinated == 1;
  if (override_count > r.remaining() / 12) {
    return Corrupt("manifest override count exceeds remaining bytes");
  }
  for (uint64_t i = 0; i < override_count; ++i) {
    int32_t instance = 0;
    double tau = 0;
    r.I32(&instance);
    if (!r.F64(&tau)) return Corrupt("truncated manifest overrides");
    if (!(tau > 0) || !std::isfinite(tau)) {
      return Corrupt("manifest with invalid instance tau");
    }
    auto [it, inserted] =
        manifest.options.instance_tau.emplace(instance, tau);
    if (!inserted) return Corrupt("manifest with duplicate instance tau");
  }
  const auto num_shards = static_cast<uint64_t>(manifest.options.num_shards);
  if (num_shards > r.remaining() / 12) {
    return Corrupt("manifest shard table exceeds remaining bytes");
  }
  manifest.shards.resize(num_shards);
  for (auto& shard : manifest.shards) {
    r.U64(&shard.file_size);
    if (!r.U32(&shard.file_crc)) return Corrupt("truncated manifest shards");
  }
  if (r.remaining() != 16) {
    return Corrupt("trailing bytes after manifest shard table");
  }
  return manifest;
}

std::string ManifestFileName(uint64_t seq) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "MANIFEST-%016llx.pie",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string ShardFileName(uint64_t seq, uint32_t shard) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "shard-%016llx-%05u.pie",
                static_cast<unsigned long long>(seq), shard);
  return buf;
}

}  // namespace pie::persist
