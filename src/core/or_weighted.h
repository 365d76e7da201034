// Boolean OR under weighted PPS sampling with known seeds (Section 5.1).
//
// Over binary domains, weighted sampling with known seeds is equivalent to
// weight-oblivious sampling: a value-1 entry is sampled with probability
// p_i = min(1, 1/tau*_i), and when entry i is missing but its seed satisfies
// u_i <= p_i, the seed certifies v_i = 0 (because v_i < u_i * tau*_i <= 1).
// MapBinaryPpsToOblivious performs exactly this outcome translation, after
// which the Section 4.3 estimators apply unchanged -- including their
// optimality and variance (the paper's Section 5.1 tables are the composed
// forms).

#pragma once

#include <cmath>
#include <vector>

#include "core/or_oblivious.h"
#include "sampling/poisson.h"
#include "util/check.h"

namespace pie {

/// Per-entry probability that a value-1 entry is sampled under PPS
/// thresholds tau: p_i = min(1, 1/tau_i).
std::vector<double> BinaryPpsInclusionProbs(const std::vector<double>& tau);

/// Maps a weighted PPS outcome over binary data (known seeds) to the
/// equivalent weight-oblivious outcome. Checks that sampled values are 0/1.
ObliviousOutcome MapBinaryPpsToOblivious(const PpsOutcome& outcome);

/// Row variant of the outcome mapping over length-r arrays: writes the
/// mapped inclusion probabilities, sampled flags, and binary values. The
/// scalar MapBinaryPpsToOblivious and the engine's batched loops both
/// route through it (bitwise-identical paths by construction).
inline void MapBinaryPpsRowToOblivious(const double* tau, const double* seed,
                                       const uint8_t* sampled,
                                       const double* value, int r,
                                       double* p_out, uint8_t* sampled_out,
                                       double* value_out) {
  for (int i = 0; i < r; ++i) {
    PIE_CHECK(tau[i] > 0);
    p_out[i] = std::fmin(1.0, 1.0 / tau[i]);
    if (sampled[i]) {
      PIE_CHECK(value[i] == 1.0);  // binary domain, zero never sampled
      sampled_out[i] = 1;
      value_out[i] = 1.0;
    } else if (seed[i] <= p_out[i]) {
      // Seed certifies a zero: v_i < u_i * tau_i <= 1.
      sampled_out[i] = 1;
      value_out[i] = 0.0;
    } else {
      sampled_out[i] = 0;
      value_out[i] = 0.0;
    }
  }
}

/// OR over r instances sampled by weighted PPS with a uniform threshold
/// tau (so each value-1 entry is sampled with p = min(1, 1/tau)): the
/// general-r OR^(L) through the outcome mapping, using the Theorem 4.2
/// prefix sums.
class OrWeightedUniform {
 public:
  OrWeightedUniform(int r, double tau);

  /// OR^(L) estimate (requires known seeds).
  double EstimateL(const PpsOutcome& outcome) const;
  /// OR^(HT): positive only when every entry is mapped-sampled.
  double EstimateHt(const PpsOutcome& outcome) const;

  double p() const { return or_l_.p(); }
  int r() const { return or_l_.r(); }

  const OrLUniform& or_l() const { return or_l_; }

 private:
  OrLUniform or_l_;
};

/// Convenience wrapper bundling the three OR estimators for two instances
/// sampled by weighted PPS with known seeds.
class OrWeightedTwo {
 public:
  OrWeightedTwo(double tau1, double tau2);

  /// OR^(HT): positive only when both seeds fall below p_i.
  double EstimateHt(const PpsOutcome& outcome) const;
  /// OR^(L) through the outcome mapping.
  double EstimateL(const PpsOutcome& outcome) const;
  /// OR^(U) through the outcome mapping.
  double EstimateU(const PpsOutcome& outcome) const;

  double p1() const { return p1_; }
  double p2() const { return p2_; }

  const OrLTwo& or_l() const { return or_l_; }
  const OrUTwo& or_u() const { return or_u_; }

 private:
  double p1_, p2_;
  OrLTwo or_l_;
  OrUTwo or_u_;
};

}  // namespace pie
