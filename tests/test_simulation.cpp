// End-to-end tests of the full NIC + link + router pipeline.

#include "mmr/core/simulation.hpp"

#include <gtest/gtest.h>

#include <map>

namespace mmr {
namespace {

SimConfig small_config() {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 20'000;
  return config;
}

Workload cbr_workload(const SimConfig& config, double load,
                      std::uint64_t stream = 1) {
  Rng rng(config.seed, stream);
  CbrMixSpec spec;
  spec.target_load = load;
  // Few, fat classes so the small VC budget suffices.
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {3.0, 1.0};
  return build_cbr_mix(config, spec, rng);
}

TEST(Simulation, LowLoadDeliversEverythingWithSmallDelay) {
  const SimConfig config = small_config();
  MmrSimulation simulation(config, cbr_workload(config, 0.3));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_NEAR(metrics.delivered_load, metrics.generated_load_measured, 0.01);
  EXPECT_FALSE(metrics.saturated());
  EXPECT_GT(metrics.flits_delivered, 1000u);
  // Delay should be a handful of flit cycles at 30% load.
  EXPECT_LT(metrics.flit_delay_us.mean(), 20 * metrics.flit_cycle_us);
  EXPECT_LT(metrics.backlog_flits, 50u);
  // Every path on one router is one hop, and every delivery counts it.
  EXPECT_EQ(metrics.delivered_hops.count(), metrics.flits_delivered);
  EXPECT_EQ(metrics.delivered_hops.mean(), 1.0);
}

TEST(Simulation, FlitConservation) {
  const SimConfig config = small_config();
  MmrSimulation simulation(config, cbr_workload(config, 0.6));
  std::uint64_t observed_departures = 0;
  simulation.set_departure_observer(
      [&observed_departures](const MmrRouter::Departure&, Cycle) {
        ++observed_departures;
      });
  const SimulationMetrics metrics = simulation.run();
  // Everything generated is delivered or still queued somewhere.
  const std::uint64_t accepted = simulation.router().flits_accepted();
  const std::uint64_t departed = simulation.router().flits_departed();
  EXPECT_EQ(accepted - departed, simulation.router().flits_buffered());
  EXPECT_EQ(observed_departures, departed);
  EXPECT_GE(observed_departures, metrics.flits_delivered);
}

TEST(Simulation, PerConnectionDeliveryIsFifoAndLossless) {
  const SimConfig config = small_config();
  MmrSimulation simulation(config, cbr_workload(config, 0.7));
  std::map<ConnectionId, std::uint64_t> next_seq;
  simulation.set_departure_observer(
      [&next_seq](const MmrRouter::Departure& departure, Cycle) {
        const Flit& flit = departure.flit;
        EXPECT_EQ(flit.seq, next_seq[flit.connection])
            << "connection " << flit.connection;
        next_seq[flit.connection] = flit.seq + 1;
      });
  (void)simulation.run();
  EXPECT_FALSE(next_seq.empty());
}

TEST(Simulation, DepartureRoutesMatchConnectionTable) {
  const SimConfig config = small_config();
  MmrSimulation simulation(config, cbr_workload(config, 0.5));
  const ConnectionTable& table = simulation.table();
  simulation.set_departure_observer(
      [&table](const MmrRouter::Departure& departure, Cycle) {
        const ConnectionDescriptor& c = table.get(departure.flit.connection);
        EXPECT_EQ(departure.input, c.input_link);
        EXPECT_EQ(departure.output, c.output_link);
        EXPECT_EQ(departure.vc, c.vc);
      });
  (void)simulation.run();
}

TEST(Simulation, DeterministicAcrossRuns) {
  const SimConfig config = small_config();
  MmrSimulation a(config, cbr_workload(config, 0.6));
  MmrSimulation b(config, cbr_workload(config, 0.6));
  const SimulationMetrics ma = a.run();
  const SimulationMetrics mb = b.run();
  EXPECT_EQ(ma.flits_delivered, mb.flits_delivered);
  EXPECT_DOUBLE_EQ(ma.flit_delay_us.mean(), mb.flit_delay_us.mean());
  EXPECT_DOUBLE_EQ(ma.crossbar_utilization, mb.crossbar_utilization);
}

TEST(Simulation, OverloadSaturatesAndBacklogGrows) {
  SimConfig config = small_config();
  MmrSimulation simulation(config, cbr_workload(config, 1.2));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_TRUE(metrics.saturated());
  EXPECT_LT(metrics.delivered_load, 1.01);
  // ~0.2 load excess x 4 ports x measure cycles of backlog.
  EXPECT_GT(metrics.backlog_flits, 1000u);
}

TEST(Simulation, WarmupExcludedFromStatistics) {
  SimConfig config = small_config();
  config.warmup_cycles = 10'000;
  config.measure_cycles = 10'000;
  MmrSimulation simulation(config, cbr_workload(config, 0.4));
  const SimulationMetrics metrics = simulation.run();
  // Measured generation window is measure_cycles: generated load near 0.4,
  // not inflated by warmup traffic.
  EXPECT_NEAR(metrics.generated_load_measured, 0.4, 0.05);
  const double port_cycles = 4.0 * 10'000.0;
  EXPECT_NEAR(static_cast<double>(metrics.flits_generated) / port_cycles,
              metrics.generated_load_measured, 1e-9);
}

TEST(Simulation, VbrRunProducesFrameMetrics) {
  SimConfig config = small_config();
  config.measure_cycles = 60'000;  // ~3 frame periods
  Rng rng(config.seed, 9);
  VbrMixSpec spec;
  spec.target_load = 0.4;
  spec.trace_gops = 2;
  MmrSimulation simulation(config, build_vbr_mix(config, spec, rng));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_GT(metrics.frames_completed, 50u);
  EXPECT_GT(metrics.frame_delay_us.mean(), 0.0);
  EXPECT_FALSE(metrics.frame_jitter_us.empty());
  ASSERT_NE(metrics.find_class("VBR"), nullptr);
  EXPECT_GT(metrics.find_class("VBR")->flits_delivered, 0u);
}

TEST(Simulation, BestEffortCoexistsWithQos) {
  SimConfig config = small_config();
  Rng rng(config.seed, 11);
  CbrMixSpec cbr_spec;
  cbr_spec.target_load = 0.5;
  cbr_spec.classes = {kCbrHigh};
  cbr_spec.class_weights = {1.0};
  Workload workload = build_cbr_mix(config, cbr_spec, rng);
  BestEffortSpec be;
  be.load = 0.2;
  be.connections_per_link = 2;
  add_best_effort(workload, config, be, rng);
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  const ClassMetrics* be_metrics = metrics.find_class("BE");
  const ClassMetrics* cbr_metrics = metrics.find_class("CBR 55 Mbps");
  ASSERT_NE(be_metrics, nullptr);
  ASSERT_NE(cbr_metrics, nullptr);
  EXPECT_GT(be_metrics->flits_delivered, 0u);
  EXPECT_GT(cbr_metrics->flits_delivered, 0u);
  // QoS traffic must not be noticeably hurt at 70% total load.
  EXPECT_LT(cbr_metrics->flit_delay_us.mean(), 50 * metrics.flit_cycle_us);
}

TEST(Simulation, StepOneAdvancesClock) {
  const SimConfig config = small_config();
  MmrSimulation simulation(config, cbr_workload(config, 0.2));
  EXPECT_EQ(simulation.now(), 0u);
  simulation.step_one();
  simulation.step_one();
  EXPECT_EQ(simulation.now(), 2u);
  simulation.check_invariants();
}

TEST(SimulationDeath, RunTwiceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SimConfig config = small_config();
  config.warmup_cycles = 10;
  config.measure_cycles = 10;
  MmrSimulation simulation(config, cbr_workload(config, 0.1));
  (void)simulation.run();
  EXPECT_DEATH((void)simulation.run(), "once");
}

}  // namespace
}  // namespace mmr
