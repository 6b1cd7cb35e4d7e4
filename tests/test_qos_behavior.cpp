// QoS behaviour tests: the paper's central claims, asserted at system level
// on hand-built workloads (not random mixes), so each mechanism is isolated.

#include <gtest/gtest.h>

#include "mmr/core/simulation.hpp"

namespace mmr {
namespace {

SimConfig qos_config(const std::string& arbiter) {
  SimConfig config;
  config.ports = 4;
  config.vcs_per_link = 16;
  config.arbiter = arbiter;
  config.warmup_cycles = 2'000;
  config.measure_cycles = 30'000;
  return config;
}

/// Adds one CBR connection and its source.
ConnectionId add_cbr(Workload& workload, const SimConfig& config,
                     std::uint32_t in, std::uint32_t out, double bps,
                     double phase = 0.0) {
  ConnectionDescriptor descriptor;
  descriptor.traffic_class = TrafficClass::kCbr;
  descriptor.mean_bandwidth_bps = bps;
  descriptor.peak_bandwidth_bps = bps;
  RoundAccounting rounds(config.flit_cycles_per_round(), config.time_base());
  descriptor.slots_per_round = rounds.slots_for_bandwidth(bps);
  descriptor.peak_slots_per_round = descriptor.slots_per_round;
  return workload.add(descriptor, {Hop{0, in, out}}, config.vcs_per_link,
                      std::make_unique<CbrSource>(
                          static_cast<ConnectionId>(workload.size()), bps,
                          config.time_base(), phase));
}

/// Delivered flit count per connection after a run.
std::vector<std::uint64_t> delivered_per_connection(MmrSimulation& simulation,
                                                    std::size_t connections) {
  std::vector<std::uint64_t> delivered(connections, 0);
  simulation.set_departure_observer(
      [&delivered](const MmrRouter::Departure& departure, Cycle) {
        ++delivered[departure.flit.connection];
      });
  (void)simulation.run();
  return delivered;
}

TEST(QosBehavior, FixedWfaIsPositionallyUnfairUnderOverload) {
  // Two connections fight for output 0 at 0.9 load each (1.8x overload).
  // The fixed WFA's cell (0,0) lies on an earlier diagonal than (3,0), so
  // input 0 wins whenever it has a flit; input 3 gets only the leftovers.
  // ("wfa-fixed" preserves the legacy fixed-corner engine; the default
  // "wfa" rotates its corner and no longer shows this bias.)
  SimConfig config = qos_config("wfa-fixed");
  Workload workload(config.ports);
  add_cbr(workload, config, 0, 0, 0.9 * 2.4e9, 0.0);
  add_cbr(workload, config, 3, 0, 0.9 * 2.4e9, 0.5);
  MmrSimulation simulation(config, std::move(workload));
  const auto delivered = delivered_per_connection(simulation, 2);
  EXPECT_GT(delivered[0], 4 * delivered[1])
      << "favoured crosspoint should dominate under plain WFA";
}

TEST(QosBehavior, CoaSharesAnOverloadedOutputEvenly) {
  // Same scenario under COA: equal reservations + SIABP aging must split
  // the contested output roughly evenly regardless of port position.
  SimConfig config = qos_config("coa");
  Workload workload(config.ports);
  add_cbr(workload, config, 0, 0, 0.9 * 2.4e9, 0.0);
  add_cbr(workload, config, 3, 0, 0.9 * 2.4e9, 0.5);
  MmrSimulation simulation(config, std::move(workload));
  const auto delivered = delivered_per_connection(simulation, 2);
  const double ratio = static_cast<double>(delivered[0]) /
                       static_cast<double>(delivered[1]);
  EXPECT_GT(ratio, 0.8);
  EXPECT_LT(ratio, 1.25);
}

TEST(QosBehavior, WrappedWfaFairnessIsPerDiagonalNotPerPair) {
  // The rotating start makes every *diagonal* first equally often, which is
  // not the same as pairwise fairness: inputs 0 and 3 contesting output 0
  // sit on diagonals 0 and 3, and diagonal 3 precedes diagonal 0 in three
  // of the four rotations — a structural 1:3 split.  Inputs 0 and 2
  // (antipodal diagonals) split evenly.
  auto split = [](std::uint32_t other_input) {
    SimConfig config = qos_config("wwfa");
    Workload workload(config.ports);
    add_cbr(workload, config, 0, 0, 0.9 * 2.4e9, 0.0);
    add_cbr(workload, config, other_input, 0, 0.9 * 2.4e9, 0.5);
    MmrSimulation simulation(config, std::move(workload));
    const auto delivered = delivered_per_connection(simulation, 2);
    return static_cast<double>(delivered[0]) /
           static_cast<double>(delivered[1]);
  };
  EXPECT_NEAR(split(2), 1.0, 0.15);        // antipodal: even
  EXPECT_NEAR(split(3), 1.0 / 3.0, 0.08);  // adjacent: structural 1:3
}

TEST(QosBehavior, LowBandwidthConnectionIsNotStarvedByHeavyNeighbours) {
  // A 64 Kbps voice connection shares an output with three heavy streams
  // (0.3 link each).  SIABP aging must keep the voice flits flowing: every
  // generated voice flit is delivered within the run.
  SimConfig config = qos_config("coa");
  Workload workload(config.ports);
  const ConnectionId voice = add_cbr(workload, config, 0, 0, 64e3);
  for (std::uint32_t in = 1; in < 4; ++in) {
    add_cbr(workload, config, in, 0, 0.3 * 2.4e9,
            static_cast<double>(in) * 0.25);
  }
  std::uint64_t voice_generated = 0;
  for (Cycle t = config.warmup_cycles; t < config.total_cycles(); ++t) {
    // 64 Kbps => one flit per 37500 cycles.
    if (t % 37500 == 0) ++voice_generated;
  }
  MmrSimulation simulation(config, std::move(workload));
  const auto delivered = delivered_per_connection(simulation, 4);
  EXPECT_GE(delivered[voice] + 1, voice_generated);
}

TEST(QosBehavior, SiabpServesProportionallyMoreThanFifoAgeForHeavyClass) {
  // The point of relating priority to bandwidth: under contention the
  // 55 Mbps connection must see *lower delay* with SIABP than with pure
  // age-ordering, because its priority grows 24x faster.
  auto mean_delay_55m = [](PriorityScheme scheme) {
    SimConfig config = qos_config("coa");
    config.priority_scheme = scheme;
    Rng rng(0xD1, 7);
    CbrMixSpec spec;
    spec.target_load = 0.85;
    spec.destinations = DestinationPolicy::kBalanced;
    MmrSimulation simulation(config, build_cbr_mix(config, spec, rng));
    const SimulationMetrics metrics = simulation.run();
    const ClassMetrics* cls = metrics.find_class("CBR 55 Mbps");
    return cls->flit_delay_us.mean();
  };
  EXPECT_LT(mean_delay_55m(PriorityScheme::kSiabp),
            mean_delay_55m(PriorityScheme::kFifoAge));
}

TEST(QosBehavior, ReservationAwareStaticPrioritiesAloneCauseStarvation) {
  // Static priorities (no aging) starve low-bandwidth connections under
  // persistent contention — the reason biasing exists.
  SimConfig config = qos_config("coa");
  config.priority_scheme = PriorityScheme::kStatic;
  Workload workload(config.ports);
  const ConnectionId light = add_cbr(workload, config, 0, 0, 1.54e6);
  add_cbr(workload, config, 1, 0, 2.4e9);  // permanent higher-priority flood
  MmrSimulation simulation(config, std::move(workload));
  const auto delivered = delivered_per_connection(simulation, 2);
  EXPECT_EQ(delivered[light], 0u)
      << "static priorities must lose to the flood — aging is what saves "
         "them (see the SIABP tests)";
}

TEST(QosBehavior, SiabpAgingRescuesTheSameScenario) {
  SimConfig config = qos_config("coa");
  config.priority_scheme = PriorityScheme::kSiabp;
  Workload workload(config.ports);
  const ConnectionId light = add_cbr(workload, config, 0, 0, 1.54e6);
  add_cbr(workload, config, 1, 0, 2.4e9);
  MmrSimulation simulation(config, std::move(workload));
  const auto delivered = delivered_per_connection(simulation, 2);
  EXPECT_GT(delivered[light], 10u);
}

}  // namespace
}  // namespace mmr
