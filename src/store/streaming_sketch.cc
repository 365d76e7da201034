#include "store/streaming_sketch.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/check.h"

namespace pie {

namespace {

// The smallest index table; Find needs at least one empty position.
constexpr size_t kMinIndexSize = 8;

}  // namespace

StreamingPpsSketch::StreamingPpsSketch(double tau, uint64_t salt)
    : tau_(tau), seed_fn_(salt) {
  PIE_CHECK(tau > 0 && std::isfinite(tau));
  Reserve(0);
}

StreamingPpsSketch StreamingPpsSketch::Build(
    const std::vector<WeightedItem>& items, double tau, uint64_t salt) {
  StreamingPpsSketch sketch(tau, salt);
  for (const auto& item : items) sketch.Update(item.key, item.weight);
  return sketch;
}

Result<StreamingPpsSketch> StreamingPpsSketch::FromParts(
    double tau, uint64_t salt, const std::vector<WeightedItem>& entries,
    uint64_t num_updates) {
  if (!(tau > 0) || !std::isfinite(tau)) {
    return Status::InvalidArgument("PPS sketch with invalid tau");
  }
  StreamingPpsSketch sketch(tau, salt);
  sketch.entries_.reserve(entries.size());
  sketch.Reserve(entries.size());
  for (const auto& e : entries) {
    if (!IsSampleableWeight(e.weight) ||
        e.weight < sketch.seed_fn_(e.key) * tau) {
      return Status::InvalidArgument(
          "PPS entry violates the inclusion invariant");
    }
    const size_t pos = sketch.Find(e.key);
    if (sketch.index_[pos] != 0) {
      return Status::InvalidArgument("duplicate key in PPS entries");
    }
    sketch.Insert(pos, e);
  }
  sketch.num_updates_ = num_updates;
  return sketch;
}

void StreamingPpsSketch::Reserve(size_t count) {
  size_t size = index_.empty() ? kMinIndexSize : index_.size();
  while (size < 2 * count) size *= 2;
  if (size == index_.size()) return;
  // Positions hold slot + 1 in a uint32_t, so at most 2^31 entries.
  PIE_CHECK(size <= (size_t{1} << 32) && "PPS sketch index overflow");
  index_.assign(size, 0);
  shift_ = 64 - std::countr_zero(size);
  // Keys are distinct, so Find stops at an empty position for each.
  for (size_t i = 0; i < entries_.size(); ++i) {
    index_[Find(entries_[i].key)] = static_cast<uint32_t>(i + 1);
  }
}

void StreamingPpsSketch::Merge(const StreamingPpsSketch& other) {
  PIE_CHECK(other.tau_ == tau_);
  PIE_CHECK(other.salt() == salt());
  // Replaying the other stream's sampled entries is exact: its rejected
  // records would be rejected here too (same seeds, same tau), and its
  // sampled ones arrive with their accumulated weights.
  Reserve(entries_.size() + other.entries_.size());
  for (const auto& e : other.entries_) {
    const size_t pos = Find(e.key);
    if (index_[pos] != 0) {
      Accumulate(&entries_[index_[pos] - 1].weight, e.weight);
    } else {
      Insert(pos, e);
    }
  }
  num_updates_ += other.num_updates_;
}

std::vector<WeightedItem> StreamingPpsSketch::EntriesByKey() const {
  std::vector<WeightedItem> sorted = entries_;
  std::sort(sorted.begin(), sorted.end(),
            [](const WeightedItem& a, const WeightedItem& b) {
              return a.key < b.key;
            });
  return sorted;
}

StreamingBottomkSketch::StreamingBottomkSketch(int k, RankFamily family,
                                               uint64_t salt)
    : k_(k), family_(family), seed_fn_(salt) {
  PIE_CHECK(k > 0);
}

StreamingBottomkSketch StreamingBottomkSketch::FromParts(
    int k, RankFamily family, uint64_t salt,
    std::vector<BottomKSketch::Entry> slots, uint64_t num_updates) {
  StreamingBottomkSketch sketch(k, family, salt);
  PIE_CHECK(static_cast<int>(slots.size()) <= k + 1);
  auto by_rank = [](const BottomKSketch::Entry& a,
                    const BottomKSketch::Entry& b) { return a.rank < b.rank; };
  PIE_CHECK(std::is_heap(slots.begin(), slots.end(), by_rank));
  for (const auto& slot : slots) {
    PIE_CHECK(slot.rank == RankValue(family, slot.weight, sketch.seed_fn_(
                                                              slot.key)) &&
              "persisted rank disagrees with its (key, weight, salt)");
  }
  sketch.heap_ = std::move(slots);
  sketch.num_updates_ = num_updates;
  return sketch;
}

void StreamingBottomkSketch::Push(const BottomKSketch::Entry& entry) {
  auto by_rank = [](const BottomKSketch::Entry& a,
                    const BottomKSketch::Entry& b) { return a.rank < b.rank; };
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), by_rank);
  if (static_cast<int>(heap_.size()) > k_ + 1) {
    std::pop_heap(heap_.begin(), heap_.end(), by_rank);
    heap_.pop_back();
  }
}

void StreamingBottomkSketch::Update(uint64_t key, double weight) {
  ++num_updates_;
  if (!IsSampleableWeight(weight)) return;  // never retained
  Push({key, weight, RankValue(family_, weight, seed_fn_(key))});
}

void StreamingBottomkSketch::Merge(const StreamingBottomkSketch& other) {
  PIE_CHECK(other.k_ == k_);
  PIE_CHECK(other.family_ == family_);
  PIE_CHECK(other.salt() == salt());
  // The union's k+1 smallest ranks are each among their own substream's
  // k+1 smallest, all of which `other` still holds with keys and weights.
  for (const auto& entry : other.heap_) Push(entry);
  num_updates_ += other.num_updates_;
}

BottomKSketch StreamingBottomkSketch::Finalize() const {
  BottomKSketch sketch;
  sketch.family = family_;
  sketch.k = k_;

  sketch.entries = heap_;
  std::sort(sketch.entries.begin(), sketch.entries.end(),
            [](const BottomKSketch::Entry& a, const BottomKSketch::Entry& b) {
              return a.rank < b.rank;
            });
  if (static_cast<int>(sketch.entries.size()) == k_ + 1) {
    sketch.threshold = sketch.entries.back().rank;
    sketch.entries.pop_back();
  } else {
    sketch.threshold = Infinity();  // sketch holds the whole instance
  }
  return sketch;
}

}  // namespace pie
