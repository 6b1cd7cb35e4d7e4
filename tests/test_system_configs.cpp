// Robustness sweep: the engine must stay correct (not merely not-crash)
// across the whole configuration space — port counts, VC counts, buffer
// depths, candidate levels, priority schemes, flit formats.

#include <gtest/gtest.h>

#include "mmr/core/simulation.hpp"

namespace mmr {
namespace {

struct ConfigCase {
  std::uint32_t ports;
  std::uint32_t vcs;
  std::uint32_t buffer_flits;
  std::uint32_t levels;
  PriorityScheme scheme;
  const char* label;
};

class ConfigSweep : public ::testing::TestWithParam<ConfigCase> {};

TEST_P(ConfigSweep, RunsCleanAndDelivers) {
  const ConfigCase& c = GetParam();
  SimConfig config;
  config.ports = c.ports;
  config.vcs_per_link = c.vcs;
  config.buffer_flits_per_vc = c.buffer_flits;
  config.candidate_levels = c.levels;
  config.priority_scheme = c.scheme;
  config.warmup_cycles = 500;
  config.measure_cycles = 8'000;
  config.validate();

  Rng rng(0xC0FFEE, c.ports * 131 + c.vcs);
  CbrMixSpec spec;
  spec.target_load = 0.5;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  const SimulationMetrics metrics = simulation.run();

  EXPECT_GT(metrics.flits_delivered, 100u);
  EXPECT_NEAR(metrics.delivered_load, metrics.generated_load_measured, 0.02);
  EXPECT_LE(metrics.delivered_load, 1.0 + 1e-9);
  simulation.check_invariants();
}

std::vector<ConfigCase> config_cases() {
  return {
      {2, 8, 1, 1, PriorityScheme::kSiabp, "minimal"},
      {2, 16, 2, 2, PriorityScheme::kIabp, "tiny_iabp"},
      {4, 64, 2, 4, PriorityScheme::kSiabp, "paper_default"},
      {4, 64, 8, 4, PriorityScheme::kSiabp, "deep_buffers"},
      {4, 64, 2, 16, PriorityScheme::kSiabp, "many_levels"},
      {4, 64, 2, 4, PriorityScheme::kFifoAge, "fifo_age"},
      {4, 64, 2, 4, PriorityScheme::kStatic, "static_priority"},
      {8, 32, 2, 4, PriorityScheme::kSiabp, "eight_ports"},
      {16, 16, 2, 4, PriorityScheme::kSiabp, "sixteen_ports"},
      {3, 24, 3, 3, PriorityScheme::kIabp, "odd_everything"},
  };
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConfigSweep, ::testing::ValuesIn(config_cases()),
    [](const ::testing::TestParamInfo<ConfigCase>& param_info) {
      return param_info.param.label;
    });

class FlitFormatSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {
};

TEST_P(FlitFormatSweep, TimeBaseAndEngineAgree) {
  const auto [flit_bits, phit_bits] = GetParam();
  SimConfig config;
  config.flit_bits = flit_bits;
  config.phit_bits = phit_bits;
  config.vcs_per_link = 32;
  config.warmup_cycles = 500;
  config.measure_cycles = 5'000;
  config.validate();

  Rng rng(0xF117, flit_bits);
  CbrMixSpec spec;
  spec.target_load = 0.4;
  spec.classes = {kCbrHigh};
  spec.class_weights = {1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_GT(metrics.flits_delivered, 0u);
  EXPECT_NEAR(metrics.flit_cycle_us,
              flit_bits / config.link_bandwidth_bps * 1e6, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Formats, FlitFormatSweep,
                         ::testing::Values(std::make_pair(1024u, 8u),
                                           std::make_pair(2048u, 16u),
                                           std::make_pair(4096u, 16u),
                                           std::make_pair(8192u, 32u)));

TEST(ConfigSweep, ZeroTrafficRunIsCleanEverywhere) {
  SimConfig config;
  config.warmup_cycles = 100;
  config.measure_cycles = 1'000;
  Workload workload(config.ports);  // no connections at all
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_EQ(metrics.flits_generated, 0u);
  EXPECT_EQ(metrics.flits_delivered, 0u);
  EXPECT_DOUBLE_EQ(metrics.crossbar_utilization, 0.0);
  EXPECT_FALSE(metrics.saturated());
}

TEST(ConfigSweep, ZeroLatencyLinksWork) {
  SimConfig config;
  config.link_latency = 0;
  config.credit_latency = 0;
  config.vcs_per_link = 32;
  config.warmup_cycles = 200;
  config.measure_cycles = 5'000;
  Rng rng(0x11, 0);
  CbrMixSpec spec;
  spec.target_load = 0.5;
  spec.classes = {kCbrHigh};
  spec.class_weights = {1.0};
  MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_NEAR(metrics.delivered_load, metrics.generated_load_measured, 0.02);
}

TEST(ConfigSweep, LongLatencyLinksNeedDeeperBuffersForFullThroughput) {
  // With B credits and a round trip of link+credit latency, a VC's ceiling
  // is B flits per round trip — the classic credit-loop bandwidth bound.
  // One saturated connection, B=2, round trip 8+8+2: throughput must be
  // well below line rate yet the run must stay loss-free and consistent.
  SimConfig config;
  config.link_latency = 8;
  config.credit_latency = 8;
  config.vcs_per_link = 4;
  config.buffer_flits_per_vc = 2;
  config.warmup_cycles = 500;
  config.measure_cycles = 10'000;
  Workload workload(config.ports);
  ConnectionDescriptor descriptor;
  descriptor.traffic_class = TrafficClass::kCbr;
  descriptor.mean_bandwidth_bps = 2.4e9;  // wants the whole link
  descriptor.peak_bandwidth_bps = 2.4e9;
  descriptor.slots_per_round = 1024;
  workload.add(descriptor, {Hop{0, 0, 1}}, config.vcs_per_link,
               std::make_unique<CbrSource>(0, 2.4e9, config.time_base()));
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  const double round_trip = 8.0 + 8.0 + 2.0;
  const double ceiling = 2.0 / round_trip;  // B / RTT flits per cycle
  const double per_port_delivered = metrics.delivered_load * 4.0;
  EXPECT_LE(per_port_delivered, ceiling * 1.15);
  EXPECT_GE(per_port_delivered, ceiling * 0.5);
  simulation.check_invariants();
}

}  // namespace
}  // namespace mmr
