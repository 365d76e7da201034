// One-pass streaming sketch builders: the store layer's ingestion
// primitives (the classic bottom-k / priority-sampling regime of the
// Cohen-Kaplan coordinated-sketch line).
//
// The batch builders (StreamingPpsSketch::Build, BottomKSample) consume a
// fully materialized std::vector<WeightedItem>; a live service cannot
// afford that dump. Both samplers are permutation-invariant functions of
// the item set -- PPS inclusion tests each key against a fixed seed-derived
// threshold, bottom-k keeps the k+1 smallest ranks -- so they admit exact
// one-pass maintenance: feeding records incrementally yields the same
// sample set as the batch builders on any arrival order. Both sketches are
// also exactly mergeable, which is what lets the sharded store fan updates
// out to per-shard sketches and recover the global per-instance sketch at
// snapshot time with no approximation.
//
// Record model: records are pre-aggregated per key (the paper's
// one-value-per-key-per-instance model, Section 7.1). A repeat arrival of
// a key that is already sampled accumulates exactly (weights only grow and
// the inclusion threshold u(h)*tau is fixed, so the key stays sampled); a
// repeat arrival of a previously rejected key is tested on its own weight
// -- exact PPS of the aggregated totals therefore requires each key's
// total to arrive in one record, or its first record to already clear the
// threshold. A repeat arrival (or a merged-in entry) whose sum with the
// stored weight would not be finite leaves the stored weight unchanged:
// like an unsampleable weight it is counted in num_updates but never
// stored, so a finite stream can never store +inf.

#pragma once

#include <cmath>
#include <cstdint>
#include <vector>

#include "sampling/bottomk.h"
#include "sampling/rank.h"
#include "util/hashing.h"
#include "util/status.h"

namespace pie {

/// True for the weights a streaming sketch can store: finite and positive.
/// NaN, infinities and nonpositive weights are counted but never stored
/// (an infinite or NaN weight would poison every estimate over its key and
/// fail the persisted inclusion invariant on recovery).
inline bool IsSampleableWeight(double weight) {
  return weight > 0 && std::isfinite(weight);
}

/// Incremental Poisson PPS sketch of one instance: key h is included iff
/// v(h) >= u(h) * tau, i.e. with probability min(1, v(h)/tau). Feeding the
/// same records in any arrival order yields the same sample set.
///
/// Storage is two flat vectors: the sampled entries in arrival order, and
/// an open-addressing key index over them -- a power-of-two table of
/// entry slot + 1 (0 = empty), at most half full, probed linearly from the
/// top bits of Mix64(key) (the store routes keys to shards by
/// Mix64(key) % num_shards, so the low bits are shared by a shard's keys).
/// A lookup is one hash and, typically, one or two adjacent table reads; a
/// copy of the sketch (a store snapshot copies every dirty shard's
/// sketches) is two contiguous vector copies, 24-32 bytes per sampled key,
/// with no per-key allocation.
class StreamingPpsSketch {
 public:
  StreamingPpsSketch(double tau, uint64_t salt);

  /// The sketch of `items` with threshold `tau` and seed salt `salt`: one
  /// Update per item, in order.
  static StreamingPpsSketch Build(const std::vector<WeightedItem>& items,
                                  double tau, uint64_t salt);

  /// Rebuilds a sketch from persisted state (persist/format.cc): the
  /// entries land in `entries_` in the given order -- which a round-trip
  /// makes the original arrival order, keeping serialization bitwise --
  /// and the key index is built in the same pass that validates them.
  /// InvalidArgument unless tau is finite and positive, the keys are
  /// distinct, and every weight is sampleable and satisfies the inclusion
  /// invariant weight >= seed(key) * tau -- so untrusted input gets a
  /// typed error, never a PIE_CHECK.
  static Result<StreamingPpsSketch> FromParts(
      double tau, uint64_t salt, const std::vector<WeightedItem>& entries,
      uint64_t num_updates);

  /// Offers one (key, weight) record. Weights that fail
  /// IsSampleableWeight, and repeats that would overflow the stored
  /// weight, are never stored but still count toward num_updates().
  void Update(uint64_t key, double weight) {
    ++num_updates_;
    if (!IsSampleableWeight(weight)) return;
    const size_t pos = Find(key);
    if (index_[pos] != 0) {
      Accumulate(&entries_[index_[pos] - 1].weight, weight);  // stays sampled
      return;
    }
    if (weight >= seed_fn_(key) * tau_) Insert(pos, {key, weight});
  }

  /// Folds `other` in as if its records had been appended to this stream.
  /// Both sketches must share tau and salt (same sampling configuration).
  void Merge(const StreamingPpsSketch& other);

  double tau() const { return tau_; }
  uint64_t salt() const { return seed_fn_.salt(); }
  const SeedFunction& seed_fn() const { return seed_fn_; }
  int size() const { return static_cast<int>(entries_.size()); }
  /// Number of Update() calls absorbed (including unsampleable-weight and
  /// merged-in ones); used by snapshot consistency checks.
  uint64_t num_updates() const { return num_updates_; }

  /// Sampled entries in arrival order.
  const std::vector<WeightedItem>& entries() const { return entries_; }
  /// Sampled entries in canonical (ascending key) order, for comparing
  /// sample sets across arrival permutations or shard layouts.
  std::vector<WeightedItem> EntriesByKey() const;

  /// True + value if the key is in the sketch.
  bool Lookup(uint64_t key, double* value) const {
    const uint32_t slot = index_[Find(key)];
    if (slot == 0) return false;
    if (value != nullptr) *value = entries_[slot - 1].weight;
    return true;
  }

  /// Horvitz-Thompson subset-sum estimate of this instance's values over
  /// keys selected by `pred`. Templated so hot scans pay no std::function
  /// indirection or allocation.
  template <typename Pred>
  double SubsetSumEstimate(Pred&& pred) const {
    double sum = 0.0;
    for (const auto& e : entries_) {
      if (pred(e.key)) {
        // w / p with p = min(1, w/tau), kept in this form: the shortcut
        // max(w, tau) differs from it by an ulp for many pairs.
        sum += e.weight / std::fmin(1.0, e.weight / tau_);
      }
    }
    return sum;
  }

 private:
  /// Adds `weight` to a stored weight unless the sum would overflow.
  static void Accumulate(double* stored, double weight) {
    const double sum = *stored + weight;
    if (std::isfinite(sum)) *stored = sum;
  }

  /// The index position holding `key`, or else the empty position where
  /// Insert would put it.
  size_t Find(uint64_t key) const {
    const size_t mask = index_.size() - 1;
    size_t pos = static_cast<size_t>(Mix64(key) >> shift_);
    while (index_[pos] != 0 && entries_[index_[pos] - 1].key != key) {
      pos = (pos + 1) & mask;
    }
    return pos;
  }

  /// Appends `item` (whose key Find placed at the empty position `pos`) to
  /// the entries and the index, growing the index past half full.
  void Insert(size_t pos, const WeightedItem& item) {
    entries_.push_back(item);
    index_[pos] = static_cast<uint32_t>(entries_.size());
    if (2 * entries_.size() > index_.size()) Reserve(entries_.size());
  }

  /// Grows the index, if needed, to hold `count` entries at most half
  /// full, re-placing the current entries.
  void Reserve(size_t count);

  double tau_;
  SeedFunction seed_fn_;
  std::vector<WeightedItem> entries_;
  std::vector<uint32_t> index_;  // entries_ slot + 1 per position; 0 = empty
  int shift_ = 0;                // 64 - log2(index_.size())
  uint64_t num_updates_ = 0;
};

/// Incremental bottom-k (order) sketch of one instance: keeps the k+1
/// smallest-ranked keys; Finalize() surfaces the k smallest as entries and
/// the (k+1)-st smallest rank as the rank-conditioning threshold, byte-
/// identical to BottomKSample over the same record multiset, on any
/// arrival order.
///
/// Merging is exact: each of the union's k+1 smallest ranks is among the
/// k+1 smallest of its own substream, all of which the substream's sketch
/// still holds (keys included -- the threshold item is only shed at
/// Finalize), so folding one sketch's slots into the other reproduces the
/// single-stream sketch of the concatenation.
class StreamingBottomkSketch {
 public:
  StreamingBottomkSketch(int k, RankFamily family, uint64_t salt);

  /// Rebuilds a sketch from persisted state (persist/format.cc): `slots`
  /// must already be a max-heap by rank of at most k+1 entries whose ranks
  /// equal RankValue(family, weight, seed(key)) -- the wire format stores
  /// only (key, weight) and recomputes ranks on load, so a round-trip is
  /// bitwise (callers validate untrusted input before this; violations
  /// here are programming errors and PIE_CHECK).
  static StreamingBottomkSketch FromParts(
      int k, RankFamily family, uint64_t salt,
      std::vector<BottomKSketch::Entry> slots, uint64_t num_updates);

  /// Offers one (key, weight) record. Keys must be distinct across the
  /// stream (pre-aggregated records); weights that fail
  /// IsSampleableWeight are counted but never retained.
  void Update(uint64_t key, double weight);

  /// Folds `other` in. Both sketches must share k, family, and salt, and
  /// the two streams' key sets must be disjoint (e.g. hash-sharded).
  void Merge(const StreamingBottomkSketch& other);

  int k() const { return k_; }
  RankFamily family() const { return family_; }
  uint64_t salt() const { return seed_fn_.salt(); }
  uint64_t num_updates() const { return num_updates_; }

  /// The raw retained slots (the k+1 smallest-ranked items, in heap
  /// order) -- what persistence serializes so a reloaded sketch keeps
  /// absorbing updates exactly where this one left off.
  const std::vector<BottomKSketch::Entry>& pending() const { return heap_; }

  /// The bottom-k sketch of everything absorbed so far: entries sorted by
  /// increasing rank, threshold = (k+1)-st smallest rank (+infinity when
  /// fewer than k+1 positive keys were seen).
  BottomKSketch Finalize() const;

 private:
  void Push(const BottomKSketch::Entry& entry);

  int k_;
  RankFamily family_;
  SeedFunction seed_fn_;
  /// Max-heap (by rank) holding the k+1 smallest-ranked items seen so far.
  std::vector<BottomKSketch::Entry> heap_;
  uint64_t num_updates_ = 0;
};

}  // namespace pie
