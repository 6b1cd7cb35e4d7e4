#include "mmr/core/simulation.hpp"

#include <gtest/gtest.h>

#include <map>
#include <tuple>

#include "workload_digest.hpp"

namespace mmr {
namespace {

SimConfig net_config() {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 64;
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

TEST(NetworkWorkload, BuilderReservesContinuousPaths) {
  const SimConfig config = net_config();
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  Rng rng(1, 1);
  Workload workload(ring);
  add_cbr_mix(workload, config, fat_mix(0.4), rng);
  EXPECT_GT(workload.connections.size(), 8u);
  workload.check_invariants();  // includes channel continuity
  // VC uniqueness per (router, input link).
  std::map<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>, int> seen;
  for (const NetworkConnection& c : workload.connections) {
    for (const Hop& hop : c.path) {
      const int uses = ++seen[std::make_tuple(hop.router, hop.in_port, hop.vc)];
      EXPECT_EQ(uses, 1);
    }
  }
}

TEST(NetworkWorkload, LoadPlacedPerLocalInputPort) {
  SimConfig config = net_config();
  // Transit links concentrate several ports' connections; give the probe
  // enough VCs that reservation never limits placement in this test.
  config.vcs_per_link = 160;
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  Rng rng(2, 2);
  Workload workload(ring);
  add_cbr_mix(workload, config, fat_mix(0.5), rng);
  std::map<std::pair<std::uint32_t, std::uint32_t>, double> bps;
  for (std::size_t i = 0; i < workload.connections.size(); ++i) {
    const Hop& first = workload.connections[i].first_hop();
    bps[{first.router, first.in_port}] += workload.sources[i]->mean_bps();
  }
  EXPECT_EQ(bps.size(), 8u);  // 2 local inputs x 4 routers
  for (const auto& [port, total] : bps) {
    EXPECT_NEAR(total / 2.4e9, 0.5, 0.03);
  }
}

// Every mix option applies on a routed fabric too: destinations are drawn
// over the local sinks, router-major.
TEST(NetworkWorkload, BalancedDestinationsEqualiseSinkLoads) {
  SimConfig config = net_config();
  config.ports = 5;
  config.vcs_per_link = 160;
  const NetworkTopology torus = NetworkTopology::torus2d(3, 3, 5);
  CbrMixSpec spec = fat_mix(0.35);
  spec.destinations = DestinationPolicy::kBalanced;
  Rng rng(12, 12);
  Workload workload(torus);
  add_cbr_mix(workload, config, spec, rng);
  std::map<std::uint32_t, double> sink_bps;
  double total = 0.0;
  for (const ConnectionDescriptor& d : workload.table.all()) {
    sink_bps[d.output_link] += d.mean_bandwidth_bps;
    total += d.mean_bandwidth_bps;
  }
  ASSERT_EQ(sink_bps.size(), 9u);  // one host port per router
  // Each sink is within one high-rate connection of the even share.
  for (const auto& [sink, bps] : sink_bps)
    EXPECT_NEAR(bps, total / 9.0, kCbrHigh.bps) << "sink link " << sink;
}

TEST(NetworkWorkload, HotOutputNamesALocalSink) {
  SimConfig config = net_config();
  config.ports = 5;
  config.vcs_per_link = 160;
  const NetworkTopology torus = NetworkTopology::torus2d(3, 3, 5);
  CbrMixSpec spec = fat_mix(0.05);
  spec.hot_output = 7;  // the host port (4) of router 7
  Rng rng(13, 13);
  Workload workload(torus);
  add_cbr_mix(workload, config, spec, rng);
  ASSERT_GT(workload.size(), 9u);
  for (const NetworkConnection& c : workload.connections) {
    EXPECT_EQ(c.last_hop().router, 7u);
    EXPECT_EQ(c.last_hop().out_port, 4u);
  }
}

TEST(NetworkWorkloadDeath, AdmissionNeedsOneRouter) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const SimConfig config = net_config();
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  CbrMixSpec spec = fat_mix(0.3);
  spec.enforce_admission = true;
  Rng rng(14, 14);
  Workload workload(ring);
  EXPECT_DEATH(add_cbr_mix(workload, config, spec, rng),
               "admission control is per router");
  VbrMixSpec vbr;
  vbr.enforce_admission = true;
  EXPECT_DEATH(add_vbr_mix(workload, config, vbr, rng),
               "admission control is per router");
}

TEST(NetworkWorkload, BestEffortLayersOnLocalInputs) {
  const SimConfig config = net_config();
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  Rng rng(15, 15);
  Workload workload(ring);
  add_cbr_mix(workload, config, fat_mix(0.3), rng);
  const std::size_t before = workload.size();
  BestEffortSpec be;
  be.load = 0.1;
  be.connections_per_link = 3;
  Rng be_rng(16, 16);
  add_best_effort(workload, config, be, be_rng);
  workload.check_invariants();
  ASSERT_EQ(workload.size(), before + 3 * 8);  // 2 local inputs x 4 routers
  for (std::size_t id = before; id < workload.size(); ++id) {
    const Hop& first = workload.connections[id].first_hop();
    EXPECT_TRUE(ring.input_is_local(first.router, first.in_port));
    EXPECT_EQ(workload.table.get(static_cast<ConnectionId>(id)).traffic_class,
              TrafficClass::kBestEffort);
  }
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  const ClassMetrics* best_effort = metrics.find_class("BE");
  ASSERT_NE(best_effort, nullptr);
  EXPECT_GT(best_effort->flits_delivered, 0u);
}

TEST(NetworkSimulation, SingleRouterTopologyMatchesBaseBehaviour) {
  // On single(4) the network builder is the one-router builder: the same
  // placements (one-router salts) and the same run (one-router RNG lane).
  const SimConfig config = net_config();
  Rng network_rng(3, 3);
  Rng base_rng(3, 3);
  Workload network(NetworkTopology::single(4));
  add_cbr_mix(network, config, fat_mix(0.4), network_rng);
  Workload base = build_cbr_mix(config, fat_mix(0.4), base_rng);
  EXPECT_EQ(test::workload_digest(network), test::workload_digest(base));

  MmrSimulation network_simulation(config, std::move(network));
  MmrSimulation base_simulation(config, std::move(base));
  const SimulationMetrics metrics = network_simulation.run();
  const SimulationMetrics expected = base_simulation.run();
  EXPECT_EQ(network_simulation.state_hash(), base_simulation.state_hash());
  EXPECT_EQ(metrics.flits_generated, expected.flits_generated);
  EXPECT_EQ(metrics.flits_delivered, expected.flits_delivered);
  EXPECT_EQ(metrics.backlog_flits, expected.backlog_flits);
  EXPECT_EQ(metrics.delivered_per_connection,
            expected.delivered_per_connection);
  // Bit-identical floats: exact equality, not a tolerance.
  EXPECT_EQ(metrics.flit_delay_us.mean(), expected.flit_delay_us.mean());
  EXPECT_EQ(metrics.flit_delay_us.variance(),
            expected.flit_delay_us.variance());
  EXPECT_EQ(metrics.delivered_load, expected.delivered_load);
  EXPECT_EQ(metrics.crossbar_utilization, expected.crossbar_utilization);
  EXPECT_EQ(metrics.mean_matching_size, expected.mean_matching_size);

  EXPECT_FALSE(metrics.saturated());
  EXPECT_NEAR(metrics.delivered_load, metrics.generated_load_measured, 0.01);
  EXPECT_EQ(metrics.delivered_hops.mean(), 1.0);
  EXPECT_LT(metrics.flit_delay_us.mean(), 30 * metrics.flit_cycle_us);
}

TEST(NetworkSimulation, RingDeliversEverythingBelowSaturation) {
  const SimConfig config = net_config();
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  Rng rng(4, 4);
  Workload workload(ring);
  add_cbr_mix(workload, config, fat_mix(0.3), rng);
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_FALSE(metrics.saturated());
  EXPECT_GT(metrics.flits_delivered, 1000u);
  // Multi-hop traffic exists: mean hops in (1, 3].
  EXPECT_GT(metrics.delivered_hops.mean(), 1.0);
  EXPECT_LE(metrics.delivered_hops.max(), 3.0);  // ring-4 diameter
  EXPECT_EQ(metrics.router_utilization.size(), 4u);
  for (const ClassMetrics& cls : metrics.per_class) {
    EXPECT_GT(cls.flits_delivered, 0u) << cls.label;
  }
}

TEST(NetworkSimulation, NoFlitLossAcrossHops) {
  const SimConfig config = net_config();
  const NetworkTopology line = NetworkTopology::line(3, 4);
  Rng rng(5, 5);
  Workload workload(line);
  add_cbr_mix(workload, config, fat_mix(0.5), rng);
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  // Conservation over the whole run: generated (measured window) is an
  // under-count of total, so compare via backlog: everything not delivered
  // is queued somewhere, nothing vanished.
  simulation.check_invariants();
  EXPECT_GT(metrics.flits_delivered, 0u);
  EXPECT_LT(metrics.backlog_flits, 100000u);
}

TEST(NetworkSimulation, DeterministicAcrossRuns) {
  const SimConfig config = net_config();
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(3, 4);
  auto build = [&] {
    Rng rng(6, 6);
    Workload workload(ring);
    add_cbr_mix(workload, config, fat_mix(0.4), rng);
    return workload;
  };
  MmrSimulation a(config, build());
  MmrSimulation b(config, build());
  const SimulationMetrics ma = a.run();
  const SimulationMetrics mb = b.run();
  EXPECT_EQ(ma.flits_delivered, mb.flits_delivered);
  EXPECT_DOUBLE_EQ(ma.flit_delay_us.mean(), mb.flit_delay_us.mean());
}

TEST(NetworkSimulation, OverloadSaturatesWithoutLoss) {
  const SimConfig config = net_config();
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(3, 4);
  Rng rng(7, 7);
  Workload workload(ring);
  add_cbr_mix(workload, config, fat_mix(1.1), rng);
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_TRUE(metrics.saturated());
  EXPECT_GT(metrics.backlog_flits, 500u);
  simulation.check_invariants();  // credits and buffers still consistent
}

TEST(NetworkSimulation, CoaOutperformsWfaOnTheRingUnderLoad) {
  SimConfig config = net_config();
  config.measure_cycles = 30'000;
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(4, 4);
  auto run_with = [&](const std::string& arbiter) {
    SimConfig c = config;
    c.arbiter = arbiter;
    Rng rng(8, 8);
    Workload workload(ring);
    add_cbr_mix(workload, c, fat_mix(0.75), rng);
    MmrSimulation simulation(c, std::move(workload));
    return simulation.run();
  };
  const SimulationMetrics coa = run_with("coa");
  const SimulationMetrics wfa = run_with("wfa");
  // Same workload: COA must deliver at least as much as the QoS-blind WFA.
  EXPECT_GE(coa.flits_delivered + coa.flits_delivered / 20,
            wfa.flits_delivered);
}

TEST(NetworkSimulation, MeshCarriesTrafficThroughInteriorRouters) {
  SimConfig config = net_config();
  config.ports = 5;  // mesh direction span + one host port
  config.vcs_per_link = 96;
  const NetworkTopology mesh = NetworkTopology::mesh(3, 3, 5);
  Rng rng(11, 11);
  Workload workload(mesh);
  add_cbr_mix(workload, config, fat_mix(0.3), rng);
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_FALSE(metrics.saturated());
  EXPECT_GT(metrics.flits_delivered, 1000u);
  // Corner-to-corner traffic exists: max path = 5 routers on a 3x3 mesh.
  EXPECT_GT(metrics.delivered_hops.max(), 3.0);
  EXPECT_LE(metrics.delivered_hops.max(), 5.0);
  // The hostless-capable centre router still switched transit traffic.
  EXPECT_GT(metrics.router_utilization[4], 0.0);
  simulation.check_invariants();
}

TEST(NetworkSimulation, VbrVideoTraversesTheRing) {
  SimConfig config = net_config();
  config.vcs_per_link = 160;
  config.measure_cycles = 45'000;  // ~2.3 frame periods
  const NetworkTopology ring = NetworkTopology::bidirectional_ring(3, 4);
  Rng rng(10, 10);
  VbrMixSpec spec;
  spec.target_load = 0.4;
  spec.trace_gops = 2;
  Workload workload(ring);
  add_vbr_mix(workload, config, spec, rng);
  ASSERT_GT(workload.connections.size(), 10u);
  for (const NetworkConnection& c : workload.connections) {
    EXPECT_EQ(c.traffic_class, TrafficClass::kVbr);
    EXPECT_GT(c.peak_bandwidth_bps, c.mean_bandwidth_bps);
  }
  MmrSimulation simulation(config, std::move(workload));
  const SimulationMetrics metrics = simulation.run();
  EXPECT_FALSE(metrics.saturated());
  EXPECT_GT(metrics.frames_completed, 100u);
  EXPECT_GT(metrics.frame_delay_us.mean(), 0.0);
  ASSERT_NE(metrics.find_class("VBR"), nullptr);
  EXPECT_GT(metrics.delivered_hops.mean(), 1.0);
}

TEST(NetworkSimulationDeath, RunTwiceAborts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  SimConfig config = net_config();
  config.warmup_cycles = 10;
  config.measure_cycles = 10;
  const NetworkTopology single = NetworkTopology::single(4);
  Rng rng(9, 9);
  Workload workload(single);
  add_cbr_mix(workload, config, fat_mix(0.1), rng);
  MmrSimulation simulation(config, std::move(workload));
  (void)simulation.run();
  EXPECT_DEATH((void)simulation.run(), "once");
}

}  // namespace
}  // namespace mmr
