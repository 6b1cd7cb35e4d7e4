#include "mmr/core/fairness.hpp"

#include <gtest/gtest.h>

#include "mmr/core/simulation.hpp"
#include "mmr/qos/rounds.hpp"

namespace mmr {
namespace {

TEST(JainIndex, PerfectEqualityIsOne) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 1.0, 1.0, 1.0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.5, 0.5}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({7.0}), 1.0);
}

TEST(JainIndex, TotalStarvationIsOneOverN) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 0.0, 0.0, 0.0}), 0.25);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 5.0}), 0.5);
}

TEST(JainIndex, KnownIntermediateValue) {
  // shares (1, 3): (1+3)^2 / (2 * (1+9)) = 16/20 = 0.8.
  EXPECT_DOUBLE_EQ(jain_fairness_index({1.0, 3.0}), 0.8);
}

TEST(JainIndex, DegenerateInputs) {
  EXPECT_DOUBLE_EQ(jain_fairness_index({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness_index({0.0, 0.0}), 0.0);
}

TEST(JainIndex, ScaleInvariant) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {10.0, 20.0, 30.0};
  EXPECT_NEAR(jain_fairness_index(a), jain_fairness_index(b), 1e-12);
}

TEST(NormalizedShares, DividesAndSkipsIdleConnections) {
  const std::vector<double> shares =
      normalized_shares({50, 0, 30}, {100, 0, 30});
  ASSERT_EQ(shares.size(), 2u);  // the idle middle connection is skipped
  EXPECT_DOUBLE_EQ(shares[0], 0.5);
  EXPECT_DOUBLE_EQ(shares[1], 1.0);
}

// --- system level ---------------------------------------------------------

ConnectionId add_cbr(Workload& workload, const SimConfig& config,
                     std::uint32_t in, std::uint32_t out, double bps,
                     double phase = 0.0) {
  ConnectionDescriptor descriptor;
  descriptor.traffic_class = TrafficClass::kCbr;
  descriptor.mean_bandwidth_bps = bps;
  descriptor.peak_bandwidth_bps = bps;
  RoundAccounting rounds(config.flit_cycles_per_round(), config.time_base());
  descriptor.slots_per_round = rounds.slots_for_bandwidth(bps);
  return workload.add(descriptor, {Hop{0, in, out}}, config.vcs_per_link,
                      std::make_unique<CbrSource>(
                          static_cast<ConnectionId>(workload.size()), bps,
                          config.time_base(), phase));
}

SimConfig fairness_config(const std::string& arbiter) {
  SimConfig config;
  config.vcs_per_link = 16;
  config.arbiter = arbiter;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 25'000;
  return config;
}

TEST(FairnessMetric, NearOneBelowSaturation) {
  SimConfig config = fairness_config("coa");
  Rng rng(0xFA1, 0);
  CbrMixSpec spec;
  spec.target_load = 0.5;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_GT(metrics.fairness_index, 0.95);
  EXPECT_EQ(metrics.generated_per_connection.size(),
            metrics.delivered_per_connection.size());
}

TEST(FairnessMetric, FixedWfaLessFairThanCoaUnderContention) {
  // The positional-starvation scenario: inputs 0 and 3 overload output 0.
  // Only the legacy fixed-corner engine ("wfa-fixed") shows the bias; the
  // default "wfa" rotates its corner and shares the hotspot like COA does.
  auto fairness = [](const char* arbiter) {
    SimConfig config = fairness_config(arbiter);
    Workload workload(config.ports);
    add_cbr(workload, config, 0, 0, 0.9 * 2.4e9, 0.0);
    add_cbr(workload, config, 3, 0, 0.9 * 2.4e9, 0.5);
    MmrSimulation simulation(config, std::move(workload));
    return simulation.run().fairness_index;
  };
  const double coa = fairness("coa");
  const double wfa_fixed = fairness("wfa-fixed");
  const double wfa = fairness("wfa");
  EXPECT_GT(coa, 0.98);
  EXPECT_LT(wfa_fixed, coa - 0.05);
  EXPECT_GT(wfa, wfa_fixed + 0.04);  // rotation recovers most of the gap
}

TEST(FairnessMetric, MergeKeepsPooledIndexDropsVectors) {
  SimulationMetrics a;
  a.arbiter = "coa";
  a.fairness_index = 0.9;
  a.generated_per_connection = {10};
  SimulationMetrics b = a;
  b.fairness_index = 0.7;
  const SimulationMetrics merged = merge_runs({a, b});
  EXPECT_NEAR(merged.fairness_index, 0.8, 1e-12);
  EXPECT_TRUE(merged.generated_per_connection.empty());
}

}  // namespace
}  // namespace mmr
