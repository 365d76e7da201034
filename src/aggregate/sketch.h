// PPS threshold planning for per-instance sketches (Section 7.1): the
// sketches themselves are the store layer's StreamingPpsSketch.

#pragma once

#include <vector>

#include "store/streaming_sketch.h"
#include "util/status.h"

namespace pie {

/// Finds tau such that the expected PPS sample size sum_h min(1, v(h)/tau)
/// equals `target` (binary search; returns +0-sized result checks). Returns
/// InvalidArgument if target is not in (0, #items].
Result<double> FindPpsTauForExpectedSize(const std::vector<WeightedItem>& items,
                                         double target);

}  // namespace pie
