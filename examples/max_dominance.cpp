// Max-dominance norm over two sampled traffic hours (the Section 8.2
// application).
//
// Scenario: each of two consecutive hours, a gateway summarizes per-
// destination flow counts with a PPS Poisson sample (threshold tau chosen
// for a ~5% sample), using hash seeds so the samples are independent but
// reproducible. The analyst estimates the max-dominance norm
// sum_h max(v1(h), v2(h)) -- the workload a cache sized for the worst hour
// must handle -- plus the min-dominance norm and the L1 change distance.
//
// EstimateMaxDominance assembles one outcome batch from the two sketches
// and drives it through the engine's memoized max^(HT) / max^(L) weighted
// kernels; the analytic variances reuse the same kernels' Variance hooks.
//
// Build & run:  ./build/examples/max_dominance

#include <cmath>
#include <cstdio>

#include "aggregate/dominance.h"
#include "aggregate/sketch.h"
#include "core/functions.h"
#include "obs/report.h"
#include "workload/traffic.h"

int main() {
  pie::TrafficParams params;
  params.keys_per_instance = 8000;
  params.distinct_total = 12000;
  params.flows_per_instance = 2e5;
  const pie::MultiInstanceData hours = pie::GenerateTraffic(params);

  const auto items1 = hours.InstanceItems(0);
  const auto items2 = hours.InstanceItems(1);

  // Thresholds for ~5% expected sample size.
  const auto tau1 = pie::FindPpsTauForExpectedSize(items1, 0.05 * items1.size());
  const auto tau2 = pie::FindPpsTauForExpectedSize(items2, 0.05 * items2.size());
  PIE_CHECK_OK(tau1.status());
  PIE_CHECK_OK(tau2.status());

  const auto hour1 = pie::StreamingPpsSketch::Build(items1, *tau1, /*salt=*/101);
  const auto hour2 = pie::StreamingPpsSketch::Build(items2, *tau2, /*salt=*/202);
  std::printf("hour 1: %d of %zu keys sketched (tau* = %.1f)\n", hour1.size(),
              items1.size(), *tau1);
  std::printf("hour 2: %d of %zu keys sketched (tau* = %.1f)\n", hour2.size(),
              items2.size(), *tau2);

  const double true_max = hours.SumAggregate(pie::MaxOf);
  const double true_min = hours.SumAggregate(pie::MinOf);
  const double true_l1 = true_max - true_min;

  const auto est = pie::EstimateMaxDominance(hour1, hour2);
  std::printf("\nmax-dominance norm: truth %.0f\n", true_max);
  std::printf("  HT estimate %.0f (error %+.2f%%)\n", est.ht,
              100 * (est.ht - true_max) / true_max);
  std::printf("  L  estimate %.0f (error %+.2f%%)\n", est.l,
              100 * (est.l - true_max) / true_max);

  const double min_est = pie::EstimateMinDominanceHt(hour1, hour2);
  std::printf("min-dominance norm: truth %.0f, HT estimate %.0f (%+.2f%%)\n",
              true_min, min_est, 100 * (min_est - true_min) / true_min);
  const double l1_est = pie::EstimateL1Distance(hour1, hour2);
  std::printf("L1 change distance: truth %.0f, estimate %.0f (%+.2f%%)\n",
              true_l1, l1_est, 100 * (l1_est - true_l1) / true_l1);

  // Exact variances (the Figure 7 metric) for this sampling rate.
  const auto var = pie::AnalyticMaxDominanceVariance(hours, *tau1, *tau2, 1e-7);
  std::printf(
      "\nanalytic max-dominance std-dev: HT %.0f, L %.0f "
      "(variance ratio %.2f)\n",
      std::sqrt(var.ht), std::sqrt(var.l), var.ht / var.l);

  pie::obs::MaybeDumpMetricsReport();
  return 0;
}
