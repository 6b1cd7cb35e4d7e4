#include "mmr/core/simulation.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace mmr {
namespace {

SimConfig net_config() {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 160;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 20'000;
  return config;
}

CbrMixSpec fat_mix(double load) {
  CbrMixSpec spec;
  spec.target_load = load;
  spec.classes = {kCbrHigh, kCbrMedium};
  spec.class_weights = {4.0, 1.0};
  return spec;
}

Workload ring_workload(const SimConfig& config, std::uint32_t routers,
                              double load, std::uint64_t seed) {
  const NetworkTopology ring =
      NetworkTopology::bidirectional_ring(routers, config.ports);
  Rng rng(seed, seed);
  Workload workload(ring);
  add_cbr_mix(workload, config, fat_mix(load), rng);
  return workload;
}

TEST(FaultNetwork, EmptyPlanIsBitIdenticalToNoPlan) {
  const SimConfig config = net_config();
  auto run = [&](bool install_empty_plan) {
    MmrSimulation simulation(config, ring_workload(config, 4, 0.4, 21));
    if (install_empty_plan) simulation.set_fault_plan(FaultPlan{});
    return simulation.run();
  };
  const SimulationMetrics base = run(false);
  const SimulationMetrics with_plan = run(true);
  EXPECT_FALSE(base.degradation.enabled);
  EXPECT_FALSE(with_plan.degradation.enabled);
  EXPECT_EQ(base.flits_generated, with_plan.flits_generated);
  EXPECT_EQ(base.flits_delivered, with_plan.flits_delivered);
  EXPECT_EQ(base.backlog_flits, with_plan.backlog_flits);
  EXPECT_DOUBLE_EQ(base.flit_delay_us.mean(), with_plan.flit_delay_us.mean());
  EXPECT_DOUBLE_EQ(base.flit_delay_us.max(), with_plan.flit_delay_us.max());
  ASSERT_EQ(base.per_class.size(), with_plan.per_class.size());
  for (std::size_t i = 0; i < base.per_class.size(); ++i) {
    EXPECT_EQ(base.per_class[i].flits_delivered,
              with_plan.per_class[i].flits_delivered);
    EXPECT_DOUBLE_EQ(base.per_class[i].flit_delay_us.mean(),
                     with_plan.per_class[i].flit_delay_us.mean());
  }
  EXPECT_EQ(with_plan.degradation.flits_dropped, 0u);
  EXPECT_EQ(with_plan.degradation.teardowns, 0u);
}

TEST(FaultNetwork, FaultSpecConfigKeyInstallsThePlan) {
  SimConfig config = net_config();
  config.fault_spec = "drop:0.01,resync_period:256,resync_timeout:512";
  MmrSimulation simulation(config, ring_workload(config, 3, 0.3, 22));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_TRUE(metrics.degradation.enabled);
  EXPECT_GT(metrics.degradation.flits_dropped, 0u);
}

TEST(FaultNetwork, DropPlanLeaksCreditsAndWatchdogRestoresThem) {
  const SimConfig config = net_config();
  MmrSimulation simulation(config, ring_workload(config, 4, 0.4, 23));
  FaultPlan plan;
  plan.default_rates.drop_probability = 0.01;
  plan.resync_period = 256;
  plan.resync_timeout = 512;
  simulation.set_fault_plan(plan);
  const SimulationMetrics metrics = simulation.run();
  simulation.check_invariants();

  const DegradationMetrics& deg = metrics.degradation;
  EXPECT_TRUE(deg.enabled);
  EXPECT_GT(deg.flits_dropped, 0u);
  // Every dropped flit leaked one consumed credit; the watchdog must have
  // healed them (up to leaks younger than the timeout at run end).
  EXPECT_GT(deg.credits_restored, 0u);
  EXPECT_GT(deg.resync_events, 0u);
  EXPECT_LE(deg.credits_restored, deg.flits_dropped);
  EXPECT_FALSE(deg.recovery_latency_us.empty());
  // Losses show up as imperfect survival, not as a stall: traffic flowed.
  EXPECT_GT(metrics.flits_delivered, 1000u);
  EXPECT_LT(metrics.flits_delivered, metrics.flits_generated);
  bool some_class_lost_flits = false;
  for (const ClassMetrics& cls : metrics.per_class) {
    const double survival = survival_rate(cls);
    EXPECT_LE(survival, 1.0);
    if (survival < 1.0) some_class_lost_flits = true;
  }
  EXPECT_TRUE(some_class_lost_flits);
}

TEST(FaultNetwork, CorruptAndCreditLossAreCountedSeparately) {
  const SimConfig config = net_config();
  MmrSimulation simulation(config, ring_workload(config, 3, 0.4, 24));
  FaultPlan plan;
  plan.default_rates.corrupt_probability = 0.005;
  plan.default_rates.credit_loss_probability = 0.005;
  plan.resync_period = 256;
  plan.resync_timeout = 512;
  simulation.set_fault_plan(plan);
  const SimulationMetrics metrics = simulation.run();
  simulation.check_invariants();
  EXPECT_GT(metrics.degradation.flits_corrupted, 0u);
  EXPECT_GT(metrics.degradation.credits_lost, 0u);
  EXPECT_EQ(metrics.degradation.flits_dropped, 0u);
  EXPECT_GT(metrics.degradation.credits_restored, 0u);
  EXPECT_GT(metrics.flits_delivered, 1000u);
}

TEST(FaultNetwork, NonZeroPlanIsDeterministicForAFixedSeed) {
  const SimConfig config = net_config();
  auto run = [&] {
    MmrSimulation simulation(config,
                                    ring_workload(config, 4, 0.4, 25));
    FaultPlan plan;
    plan.default_rates.drop_probability = 0.005;
    plan.default_rates.credit_loss_probability = 0.002;
    plan.resync_period = 256;
    plan.resync_timeout = 512;
    plan.seed = 99;
    simulation.set_fault_plan(plan);
    return simulation.run();
  };
  const SimulationMetrics a = run();
  const SimulationMetrics b = run();
  EXPECT_EQ(a.flits_delivered, b.flits_delivered);
  EXPECT_EQ(a.degradation.flits_dropped, b.degradation.flits_dropped);
  EXPECT_EQ(a.degradation.credits_lost, b.degradation.credits_lost);
  EXPECT_EQ(a.degradation.credits_restored, b.degradation.credits_restored);
  EXPECT_DOUBLE_EQ(a.flit_delay_us.mean(), b.flit_delay_us.mean());
}

TEST(FaultNetwork, RingRoutesAroundAnOutage) {
  const SimConfig config = net_config();
  MmrSimulation simulation(config, ring_workload(config, 4, 0.3, 26));

  // Cut one directed ring channel mid-run; the ring's other direction
  // provides the next shortest path, so connections survive by rerouting.
  std::int32_t victim = -1;
  for (std::uint32_t port = 0; port < config.ports && victim == -1; ++port) {
    victim = simulation.channel_at(0, port);
  }
  ASSERT_NE(victim, -1);
  FaultPlan plan;
  plan.down_windows.push_back(
      {static_cast<std::uint32_t>(victim), 8'000, 14'000});
  simulation.set_fault_plan(plan);

  const SimulationMetrics metrics = simulation.run();
  simulation.check_invariants();
  const DegradationMetrics& deg = metrics.degradation;
  EXPECT_GT(deg.teardowns, 0u);
  EXPECT_EQ(deg.reroutes, deg.teardowns);  // the ring always has a detour
  EXPECT_EQ(deg.connections_lost, 0u);
  EXPECT_GT(deg.flits_flushed, 0u);  // teardown flushed in-transit flits
  // Deliveries happened both during and outside the outage window, and the
  // two tallies partition the delivered count.
  EXPECT_GT(deg.delivered_during_fault, 0u);
  EXPECT_GT(deg.delivered_outside_fault, 0u);
  EXPECT_EQ(deg.delivered_during_fault + deg.delivered_outside_fault,
            metrics.flits_delivered);
  EXPECT_GT(metrics.flits_delivered, 1000u);
}

TEST(FaultNetwork, LineCutDropsGracefullyAndReadmitsWhenTheLinkReturns) {
  SimConfig config = net_config();
  const NetworkTopology line = NetworkTopology::line(2, config.ports);
  Rng rng(27, 27);
  Workload workload(line);
  add_cbr_mix(workload, config, fat_mix(0.3), rng);
  MmrSimulation simulation(config, std::move(workload));

  // Cut every channel leaving router 0 (on a 2-router line they all reach
  // router 1): traffic 0 -> 1 has no detour and must be dropped gracefully,
  // then re-admitted when the window ends.
  FaultPlan plan;
  for (std::uint32_t port = 0; port < config.ports; ++port) {
    const std::int32_t channel = simulation.channel_at(0, port);
    if (channel != -1) {
      plan.down_windows.push_back(
          {static_cast<std::uint32_t>(channel), 6'000, 12'000});
    }
  }
  ASSERT_FALSE(plan.down_windows.empty());
  simulation.set_fault_plan(plan);

  const SimulationMetrics metrics = simulation.run();
  simulation.check_invariants();
  const DegradationMetrics& deg = metrics.degradation;
  EXPECT_GT(deg.teardowns, 0u);
  EXPECT_EQ(deg.reroutes, 0u);  // a cut line has no alternative path
  EXPECT_GT(deg.readmissions, 0u);
  EXPECT_EQ(deg.readmissions, deg.teardowns);
  EXPECT_EQ(deg.connections_lost, 0u);
  // Disconnected sources kept producing into the void...
  EXPECT_GT(deg.source_flits_discarded, 0u);
  // ...and each outage contributed a recovery-latency sample covering the
  // whole window (6000 cycles minimum).
  ASSERT_FALSE(deg.recovery_latency_us.empty());
  const TimeBase tb = config.time_base();
  EXPECT_GE(deg.recovery_latency_us.max(), tb.cycles_to_us(6'000.0) * 0.99);
  // Traffic flowed again after re-admission.
  EXPECT_GT(metrics.flits_delivered, 1000u);
}

// finalize() only reads the simulation: a connection still dropped at the
// end of the run is counted on the returned metrics, never in the state, so
// finalizing twice agrees and run()'s own finalize leaves the state hash of
// the last cycle untouched.
TEST(FaultNetwork, FinalizeLeavesTheSimulatedStateAlone) {
  SimConfig config = net_config();
  config.warmup_cycles = 500;
  config.measure_cycles = 4'000;
  const NetworkTopology line = NetworkTopology::line(2, config.ports);
  Rng rng(27, 27);
  Workload workload(line);
  add_cbr_mix(workload, config, fat_mix(0.3), rng);
  MmrSimulation simulation(config, std::move(workload));
  FaultPlan plan;  // router 0 loses router 1 for good: no detour exists
  for (std::uint32_t port = 0; port < config.ports; ++port) {
    const std::int32_t channel = simulation.channel_at(0, port);
    if (channel != -1)
      plan.down_windows.push_back(
          {static_cast<std::uint32_t>(channel), 1'000, 1'000'000});
  }
  simulation.set_fault_plan(plan);
  while (simulation.now() < config.total_cycles()) simulation.step_one();
  const std::uint64_t before = simulation.state_hash();
  const SimulationMetrics metrics = simulation.run();  // no cycle left to step
  EXPECT_EQ(simulation.state_hash(), before);
  const SimulationMetrics again = simulation.finalize();
  EXPECT_GT(metrics.degradation.connections_lost, 0u);
  EXPECT_EQ(again.degradation.connections_lost,
            metrics.degradation.connections_lost);
  EXPECT_EQ(simulation.state_hash(), before);
}

TEST(FaultNetwork, QosViolationsAreWorseDuringHeavyFaults) {
  const SimConfig config = net_config();
  MmrSimulation simulation(config, ring_workload(config, 4, 0.5, 28));
  std::int32_t victim = -1;
  for (std::uint32_t port = 0; port < config.ports && victim == -1; ++port) {
    victim = simulation.channel_at(1, port);
  }
  ASSERT_NE(victim, -1);
  FaultPlan plan;
  plan.down_windows.push_back(
      {static_cast<std::uint32_t>(victim), 6'000, 16'000});
  plan.qos_deadline_cycles = 100.0;
  simulation.set_fault_plan(plan);
  const SimulationMetrics metrics = simulation.run();
  const DegradationMetrics& deg = metrics.degradation;
  ASSERT_GT(deg.delivered_during_fault, 0u);
  ASSERT_GT(deg.delivered_outside_fault, 0u);
  // Rerouted connections take longer detours and queues back up behind the
  // outage: the violation rate during the fault window must not be better
  // than in calm conditions.
  EXPECT_GE(deg.violation_rate_during_fault(),
            deg.violation_rate_outside_fault());
}

TEST(FaultNetworkDeath, PlanInstallAfterRunAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SimConfig config = net_config();
  config.warmup_cycles = 10;
  config.measure_cycles = 10;
  MmrSimulation simulation(config, ring_workload(config, 3, 0.1, 29));
  (void)simulation.run();
  EXPECT_DEATH(simulation.set_fault_plan(FaultPlan{}), "before the first");
}

}  // namespace
}  // namespace mmr
