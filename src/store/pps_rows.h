// The one row builder for multi-instance PPS scans (Sections 7-8).
//
// The paper's sum aggregates apply a per-key estimator to every key of a
// union (or intersection) of the instances' samples. Each key becomes one
// row of a columnar OutcomeBatch (engine.h): per instance, its threshold
// tau, its seed -- recomputed from the instance's salt, so any key's seed
// is known in every instance -- and its sampled value, if any. Both the
// store's QueryService and the offline aggregates (aggregate/dominance.h)
// build their rows here, so the two paths see identical rows in identical
// order, and the row order -- which the chunked reduction's bits depend
// on -- is decided in one place.

#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "engine/engine.h"
#include "store/streaming_sketch.h"
#include "util/hashing.h"
#include "util/status.h"

namespace pie {

/// One instance as a row source: its sample (nullptr when the scanned
/// shard never saw the instance; it then contributes no keys and samples
/// nothing), its PPS threshold, and its seed function. The store passes
/// the snapshot's TauFor/InstanceSalt, since a shard may lack the sketch.
struct PpsSource {
  const StreamingPpsSketch* sketch;
  double tau;
  SeedFunction seed;

  /// A whole sketch with its own tau and seeds (the offline aggregates).
  static PpsSource Of(const StreamingPpsSketch& sketch) {
    return {&sketch, sketch.tau(), sketch.seed_fn()};
  }
};

/// The "all keys" predicate: statically true, so the per-key test
/// compiles away.
struct AllKeys {
  bool operator()(uint64_t) const { return true; }
};

/// Resets `batch` to the r = 2 PPS layout and appends one row per key
/// sampled in `a` or `b` and selected by `pred`: a's keys in a's arrival
/// order, then b's keys that a lacks, in b's arrival order. Each row holds
/// both taus, both recomputed seeds, and the value of each instance that
/// sampled the key (0 and unsampled elsewhere).
template <typename Pred = AllKeys>
void BuildPairUnion(const PpsSource& a, const PpsSource& b,
                    OutcomeBatch* batch, const Pred& pred = {}) {
  batch->Reset(Scheme::kPps, 2);
  batch->Reserve((a.sketch != nullptr ? a.sketch->size() : 0) +
                 (b.sketch != nullptr ? b.sketch->size() : 0));
  auto append = [&](uint64_t key, bool in_a, double v_a, bool in_b,
                    double v_b) {
    const int i = batch->AppendRow();
    double* tau = batch->param_row(i);
    tau[0] = a.tau;
    tau[1] = b.tau;
    double* seed = batch->seed_row(i);
    seed[0] = a.seed(key);
    seed[1] = b.seed(key);
    uint8_t* sampled = batch->sampled_row(i);
    sampled[0] = in_a ? 1 : 0;
    sampled[1] = in_b ? 1 : 0;
    double* value = batch->value_row(i);
    value[0] = v_a;
    value[1] = v_b;
  };
  if (a.sketch != nullptr) {
    for (const auto& e : a.sketch->entries()) {
      if (!pred(e.key)) continue;
      double v_b = 0.0;
      const bool in_b = b.sketch != nullptr && b.sketch->Lookup(e.key, &v_b);
      append(e.key, true, e.weight, in_b, v_b);
    }
  }
  if (b.sketch != nullptr) {
    for (const auto& e : b.sketch->entries()) {
      if (!pred(e.key)) continue;
      if (a.sketch != nullptr && a.sketch->Lookup(e.key, nullptr)) continue;
      append(e.key, false, 0.0, true, e.weight);
    }
  }
}

/// Resets `batch` to the r = 2 PPS layout and appends one row per key
/// sampled in both `a` and `b` and selected by `pred`, in a's arrival
/// order: the rows min^(HT) reads. Seeds are left 0 -- the unknown-seeds
/// kernels never read them, so no seed is hashed.
template <typename Pred = AllKeys>
void BuildPairIntersection(const PpsSource& a, const PpsSource& b,
                           OutcomeBatch* batch, const Pred& pred = {}) {
  batch->Reset(Scheme::kPps, 2);
  if (a.sketch == nullptr || b.sketch == nullptr) return;
  batch->Reserve(std::min(a.sketch->size(), b.sketch->size()));
  for (const auto& e : a.sketch->entries()) {
    if (!pred(e.key)) continue;
    double v_b = 0.0;
    if (!b.sketch->Lookup(e.key, &v_b)) continue;
    const int i = batch->AppendRow();
    double* tau = batch->param_row(i);
    tau[0] = a.tau;
    tau[1] = b.tau;
    double* seed = batch->seed_row(i);
    seed[0] = seed[1] = 0.0;
    uint8_t* sampled = batch->sampled_row(i);
    sampled[0] = sampled[1] = 1;
    double* value = batch->value_row(i);
    value[0] = e.weight;
    value[1] = v_b;
  }
}

/// Resets `batch` to the r = sources.size() PPS layout and appends one row
/// per key sampled in any source -- each source's keys that no earlier
/// source holds, in that source's arrival order -- with membership as the
/// value (1 where sampled, 0 elsewhere): the Boolean-OR rows of a distinct
/// count. InvalidArgument if any sampled weight is not 1 (the rows assume
/// set semantics).
Status BuildUnitUnion(const std::vector<PpsSource>& sources,
                      OutcomeBatch* batch);

}  // namespace pie
