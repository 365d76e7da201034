// Sampling-pattern partitioning of batch blocks: the scratch permutation
// under the branch-free kernel block loops (engine/registry.cc).
//
// The paper's estimators are closed forms chosen by the row's sampling
// PATTERN -- which of the r entries were sampled -- and the fused slab
// loops in engine/registry.cc used to re-derive that choice per row with
// data-dependent branches, which both mispredict on mixed batches and
// block auto-vectorization. Instead, each block of up to 256 rows (the
// scan driver's chunk unit, kScanChunkRows) is first partitioned into
// STABLE index buckets by pattern code -- for r=2 the four
// (sampled_0, sampled_1) combinations; for HT-style all-or-nothing
// estimators just all-sampled vs not. No row data moves: the partition is
// a per-block permutation of row indices living entirely on the stack.
// Each bucket's rows are then gathered into dense scratch columns, pushed
// through a branch-free loop the compiler auto-vectorizes (every row in a
// bucket evaluates the SAME closed form, so there is nothing left to
// predict), and scattered back to the caller's row-indexed output.
//
// Stability matters only for cache-friendliness (buckets walk the block in
// row order); correctness never depends on it, because results land in
// per-row output slots. Bitwise equality with the scalar estimators is
// enforced registry-wide by tests/simd_partition_test.cc and
// tests/parallel_scan_test.cc: the bucket loops replicate the scalar
// path's floating-point expression trees exactly (hoisting only
// row-invariant subexpressions, which is value-preserving), so
// partitioned execution produces identical bytes.

#pragma once

#include <cstddef>
#include <cstdint>

#include "obs/metrics.h"

namespace pie {

/// Rows per partition block. Equal to the scan driver's kScanChunkRows so
/// a driver chunk is exactly one block; kernels fed larger batches split
/// them into blocks of this size internally.
inline constexpr int kPartitionBlockRows = 256;

/// Stable partition of an r=2 block by pattern code
/// sampled_0 + 2 * sampled_1: bucket 0 = neither entry sampled,
/// 1 = only entry 0, 2 = only entry 1, 3 = both.
struct R2Partition {
  uint16_t idx[4][kPartitionBlockRows];
  int count[4];
};

/// Bucket-occupancy counters (pie_simd_bucket_rows_total): one Add per
/// NON-EMPTY bucket per block, so the hot partition paths pay at most a
/// handful of relaxed fetch_adds per 256 rows. Inline no-op when metrics
/// are compiled out.
inline void CountBucketRows(obs::Counter* const counters[], const int* counts,
                            int num_buckets) {
  for (int b = 0; b < num_buckets; ++b) {
    if (counts[b] > 0) counters[b]->Add(static_cast<uint64_t>(counts[b]));
  }
}

/// Partitions `n` rows (n <= kPartitionBlockRows) of the r=2 sampled slab
/// `sampled` (row-major, 2 flags per row).
inline void PartitionR2(const uint8_t* sampled, int n, R2Partition* part) {
  part->count[0] = part->count[1] = part->count[2] = part->count[3] = 0;
  for (int i = 0; i < n; ++i) {
    const int code =
        (sampled[2 * i] != 0 ? 1 : 0) + (sampled[2 * i + 1] != 0 ? 2 : 0);
    part->idx[code][part->count[code]++] = static_cast<uint16_t>(i);
  }
  static obs::Counter* const counters[4] = {
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_bucket_rows_total",
          "Rows per sampling-pattern bucket across partitioned blocks",
          {{"partition", "r2"}, {"bucket", "none"}}),
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_bucket_rows_total",
          "Rows per sampling-pattern bucket across partitioned blocks",
          {{"partition", "r2"}, {"bucket", "first"}}),
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_bucket_rows_total",
          "Rows per sampling-pattern bucket across partitioned blocks",
          {{"partition", "r2"}, {"bucket", "second"}}),
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_bucket_rows_total",
          "Rows per sampling-pattern bucket across partitioned blocks",
          {{"partition", "r2"}, {"bucket", "both"}})};
  CountBucketRows(counters, part->count, 4);
}

/// Stable partition of a block by the all-or-nothing criterion of the
/// HT-style estimators: rows with every entry sampled vs the rest (which
/// estimate 0 identically).
struct AllSampledPartition {
  uint16_t idx[kPartitionBlockRows];   // rows with all r entries sampled
  uint16_t rest[kPartitionBlockRows];  // everything else
  int count;
  int rest_count;
};

inline void PartitionAllSampled(const uint8_t* sampled, int r, int n,
                                AllSampledPartition* part) {
  part->count = 0;
  part->rest_count = 0;
  for (int i = 0; i < n; ++i) {
    bool all = true;
    for (int j = 0; j < r; ++j) all = all && sampled[i * r + j] != 0;
    if (all) {
      part->idx[part->count++] = static_cast<uint16_t>(i);
    } else {
      part->rest[part->rest_count++] = static_cast<uint16_t>(i);
    }
  }
  static obs::Counter* const counters[2] = {
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_bucket_rows_total",
          "Rows per sampling-pattern bucket across partitioned blocks",
          {{"partition", "all_sampled"}, {"bucket", "hit"}}),
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_bucket_rows_total",
          "Rows per sampling-pattern bucket across partitioned blocks",
          {{"partition", "all_sampled"}, {"bucket", "rest"}})};
  const int counts[2] = {part->count, part->rest_count};
  CountBucketRows(counters, counts, 2);
}

/// Stable partition by "has at least one sampled entry": `idx` holds rows
/// with one or more sampled entries, `rest` the empty outcomes, which
/// estimate exactly 0 under every kernel family.
inline void PartitionAnySampled(const uint8_t* sampled, int r, int n,
                                AllSampledPartition* part) {
  part->count = 0;
  part->rest_count = 0;
  for (int i = 0; i < n; ++i) {
    bool any = false;
    for (int j = 0; j < r; ++j) any = any || sampled[i * r + j] != 0;
    if (any) {
      part->idx[part->count++] = static_cast<uint16_t>(i);
    } else {
      part->rest[part->rest_count++] = static_cast<uint16_t>(i);
    }
  }
  static obs::Counter* const counters[2] = {
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_bucket_rows_total",
          "Rows per sampling-pattern bucket across partitioned blocks",
          {{"partition", "any_sampled"}, {"bucket", "hit"}}),
      &obs::MetricsRegistry::Global().GetCounter(
          "pie_simd_bucket_rows_total",
          "Rows per sampling-pattern bucket across partitioned blocks",
          {{"partition", "any_sampled"}, {"bucket", "rest"}})};
  const int counts[2] = {part->count, part->rest_count};
  CountBucketRows(counters, counts, 2);
}

/// Gathers column `col` of the row-major slab (r doubles per row) for the
/// `n` rows in `idx` into the dense array `out`.
inline void GatherColumn(const double* slab, int r, int col,
                         const uint16_t* idx, int n, double* out) {
  for (int k = 0; k < n; ++k) {
    out[k] = slab[static_cast<size_t>(idx[k]) * static_cast<size_t>(r) + col];
  }
}

/// Scatters the dense values `in` back to the row-indexed slots of `out`.
inline void Scatter(const double* in, const uint16_t* idx, int n,
                    double* out) {
  for (int k = 0; k < n; ++k) out[idx[k]] = in[k];
}

/// Writes `v` to every row slot of `out` named by `idx`.
inline void ScatterConstant(double v, const uint16_t* idx, int n,
                            double* out) {
  for (int k = 0; k < n; ++k) out[idx[k]] = v;
}

}  // namespace pie
