#include "store/pps_rows.h"

namespace pie {

Status BuildUnitUnion(const std::vector<PpsSource>& sources,
                      OutcomeBatch* batch) {
  const int r = static_cast<int>(sources.size());
  batch->Reset(Scheme::kPps, r);
  int rows = 0;
  for (const PpsSource& source : sources) {
    if (source.sketch != nullptr) rows += source.sketch->size();
  }
  batch->Reserve(rows);
  auto holds = [&](int j, uint64_t key) {
    const StreamingPpsSketch* sketch = sources[static_cast<size_t>(j)].sketch;
    return sketch != nullptr && sketch->Lookup(key, nullptr);
  };
  for (int j = 0; j < r; ++j) {
    const StreamingPpsSketch* sketch = sources[static_cast<size_t>(j)].sketch;
    if (sketch == nullptr) continue;
    for (const auto& e : sketch->entries()) {
      if (e.weight != 1.0) {
        return Status::InvalidArgument(
            "distinct union requires unit-weight ingestion (set semantics)");
      }
      bool covered = false;
      for (int prev = 0; prev < j && !covered; ++prev) {
        covered = holds(prev, e.key);
      }
      if (covered) continue;
      // Sources before j lack the key (it is not covered) and j holds it,
      // so only the later sources need a lookup.
      const int i = batch->AppendRow();
      double* tau = batch->param_row(i);
      double* seed = batch->seed_row(i);
      uint8_t* sampled = batch->sampled_row(i);
      double* value = batch->value_row(i);
      for (int k = 0; k < r; ++k) {
        const PpsSource& source = sources[static_cast<size_t>(k)];
        tau[k] = source.tau;
        seed[k] = source.seed(e.key);
        const bool in = k == j || (k > j && holds(k, e.key));
        sampled[k] = in ? 1 : 0;
        value[k] = in ? 1.0 : 0.0;
      }
    }
  }
  return Status::OK();
}

}  // namespace pie
