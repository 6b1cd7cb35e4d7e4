// Differential oracle for the routers' eligibility masks.  The engine keeps
// one mask per router current at events (credit consume and return,
// restore, Xoff/Xon, fault up/down, reroute, checkpoint load); this test
// evaluates, after every cycle, the per-head predicate the masks encode
// — a last hop is always eligible; any other head needs its next hop's
// channel up, not paused, and holding a credit for the downstream VC — and
// requires mask == predicate for every (router, input, VC).  Scenarios cover
// a torus and a fat tree under a fault plan (drops, credit loss, links going
// down and up, reroutes), flow=shared pauses, every queue discipline,
// credit latencies 0..2, the serial and the sharded loop, and a resume from
// a mid-run checkpoint.
//
//   test_eligibility [--gtest_*] [iterations=N] [seed=S]
//
// iterations = simulated cycles per scenario.

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "mmr/core/simulation.hpp"
#include "mmr/network/network.hpp"
#include "oracle_args.hpp"

namespace mmr {
namespace {

enum class Topo { kTorus, kFatTree };

/// The head predicate, evaluated from the simulation state directly.
bool predicate(const MmrSimulation& sim, std::uint32_t router,
               std::uint32_t input, std::uint32_t vc) {
  const MmrSimulation::NextHop& next = sim.next_hop(router, input, vc);
  if (next.local) return true;
  const MmrSimulation::ChannelGate gate = sim.channel_gate(next.channel);
  if (gate.paused || gate.down) return false;
  return gate.credits->has_credit(next.downstream_vc);
}

struct Seen {
  std::uint64_t heads_checked = 0;
  std::uint64_t blocked_outputs = 0;  ///< (cycle, output) pairs gated
  std::uint64_t credit_gated = 0;     ///< (cycle, head) pairs without credit
  std::uint64_t teardowns = 0;
  std::uint64_t pause_events = 0;
};

/// Compares every router's mask with the predicate; returns false (after a
/// gtest failure naming the first disagreement) on a mismatch.
bool masks_match(const MmrSimulation& sim, std::uint32_t vcs,
                 const std::vector<std::int32_t>& output_of_channel,
                 Seen& seen) {
  const std::uint32_t ports = sim.topology().ports_per_router();
  for (std::uint32_t r = 0; r < sim.topology().routers(); ++r) {
    const EligibilityMask& mask = sim.router(r).eligibility();
    for (std::uint32_t out = 0; out < ports; ++out) {
      const std::int32_t channel = sim.channel_at(r, out);
      bool gated = false;
      if (channel != -1) {
        const MmrSimulation::ChannelGate gate =
            sim.channel_gate(static_cast<std::uint32_t>(channel));
        gated = gate.paused || gate.down;
      }
      if (mask.blocked(out) != gated) {
        ADD_FAILURE() << "cycle " << sim.now() << " router " << r
                      << " output " << out << ": mask blocked "
                      << mask.blocked(out) << ", channel gated " << gated;
        return false;
      }
      if (gated) ++seen.blocked_outputs;
    }
    for (std::uint32_t input = 0; input < ports; ++input) {
      for (std::uint32_t vc = 0; vc < vcs; ++vc) {
        const MmrSimulation::NextHop& next = sim.next_hop(r, input, vc);
        const std::uint32_t out =
            next.local ? 0
                       : static_cast<std::uint32_t>(
                             output_of_channel[next.channel]);
        const bool from_mask = next.local ? mask.credit(input, vc)
                                          : mask.eligible(input, vc, out);
        const bool expected = predicate(sim, r, input, vc);
        ++seen.heads_checked;
        if (!mask.credit(input, vc)) ++seen.credit_gated;
        if (from_mask != expected) {
          ADD_FAILURE() << "cycle " << sim.now() << " router " << r
                        << " input " << input << " vc " << vc
                        << ": mask says " << from_mask << ", predicate "
                        << expected;
          return false;
        }
      }
    }
  }
  return true;
}

NetworkTopology make_topology(Topo topo, std::uint32_t ports) {
  return topo == Topo::kTorus ? NetworkTopology::torus2d(4, 4, ports)
                              : NetworkTopology::fat_tree(4, ports);
}

/// Runs one scenario for `cycles` cycles, checking after each one.
Seen run_oracle(Topo topo, const std::vector<std::string>& overrides,
                std::uint32_t net_threads, std::uint64_t cycles,
                std::uint64_t seed) {
  SimConfig config;
  config.ports = 5;
  config.vcs_per_link = 16;
  config.seed = seed;
  config.warmup_cycles = 0;
  config.measure_cycles = cycles;
  config.credit_latency = seed % 3;
  config.net_threads = net_threads;
  apply_overrides(config, overrides);
  const NetworkTopology topology = make_topology(topo, config.ports);

  // Two outages on seed-chosen channels, overlapping, both ending inside
  // the run, on top of per-flit drops and credit loss.
  Rng pick(seed, 0xE11);
  const auto channels = static_cast<std::uint64_t>(topology.channels());
  const std::uint64_t a = pick.uniform(channels);
  const std::uint64_t b = pick.uniform(channels);
  const std::uint64_t w = std::max<std::uint64_t>(cycles, 40);
  config.fault_spec = "drop:0.005,credit_loss:0.005,down:" +
                      std::to_string(a) + ":" + std::to_string(w / 5) + ":" +
                      std::to_string(w / 2) + ",down:" + std::to_string(b) +
                      ":" + std::to_string(w / 8) + ":" +
                      std::to_string(3 * w / 5) +
                      ",resync_period:64,resync_timeout:128";

  CbrMixSpec mix;
  mix.target_load = 0.35;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  const auto make_sim = [&] {
    Rng rng(config.seed, 7);
    return std::make_unique<MmrSimulation>(
        config, build_network_cbr_mix(config, topology, mix, rng));
  };
  std::unique_ptr<MmrSimulation> sim = make_sim();

  std::vector<std::int32_t> output_of_channel(topology.channels(), -1);
  for (std::uint32_t r = 0; r < topology.routers(); ++r)
    for (std::uint32_t out = 0; out < config.ports; ++out)
      if (const std::int32_t ch = sim->channel_at(r, out); ch != -1)
        output_of_channel[static_cast<std::size_t>(ch)] =
            static_cast<std::int32_t>(out);

  // Halfway, inside the second outage, the run moves to a fresh simulation
  // restored from a checkpoint: its masks are rebuilt from the loaded state.
  const std::string checkpoint = ::testing::TempDir() + "eligibility-" +
                                 std::to_string(seed) + ".snap";
  Seen seen;
  const std::uint32_t vcs = config.vcs_per_link;
  if (!masks_match(*sim, vcs, output_of_channel, seen)) return seen;
  for (std::uint64_t c = 0; c < cycles; ++c) {
    if (c == cycles / 2) {
      sim->save_checkpoint(checkpoint);
      sim = make_sim();
      sim->restore_checkpoint(checkpoint);
      std::remove(checkpoint.c_str());
      if (!masks_match(*sim, vcs, output_of_channel, seen)) break;
    }
    sim->step_one();
    if (!masks_match(*sim, vcs, output_of_channel, seen)) break;
  }
  const SimulationMetrics metrics = sim->finalize();
  seen.teardowns = metrics.degradation.teardowns;
  seen.pause_events = metrics.mmu.pause_events;
  return seen;
}

struct Scenario {
  const char* label;
  std::vector<std::string> overrides;
  bool pauses;  ///< the tight pool must pause some channel
};

TEST(EligibilityOracle, MaskMatchesPredicateEveryCycle) {
  const std::string tight = "flow=shared,pool:4,reserved:1,xoff:2,xon:1";
  const std::vector<Scenario> scenarios = {
      {"qd=vc", {"qd=vc"}, false},
      {"qd=voq", {"qd=voq"}, false},
      {"qd=cicq", {"qd=cicq"}, false},
      {"qd=vc shared", {"qd=vc", tight, "rogue=frac:0.25,scale:4"}, true},
      {"qd=voq shared", {"qd=voq", tight, "rogue=frac:0.25,scale:4"}, true},
      {"qd=cicq shared", {"qd=cicq", tight}, true},
  };
  const std::uint64_t cycles = oracle::args().iterations;
  const std::uint64_t seed = oracle::args().seed;
  Seen total;
  for (const Topo topo : {Topo::kTorus, Topo::kFatTree}) {
    for (const Scenario& scenario : scenarios) {
      for (const std::uint32_t threads : {1u, 2u}) {
        const std::string name = topo == Topo::kTorus ? "torus " : "fat tree ";
        SCOPED_TRACE(name + scenario.label + " net_threads=" +
                     std::to_string(threads) + " seed=" +
                     std::to_string(seed));
        const Seen seen =
            run_oracle(topo, scenario.overrides, threads, cycles, seed);
        ASSERT_FALSE(::testing::Test::HasFailure());
        // Outages tore connections down and rerouted them; the tight pool
        // paused channels.
        EXPECT_GT(seen.teardowns, 0u);
        if (scenario.pauses) {
          EXPECT_GT(seen.pause_events, 0u);
        }
        total.credit_gated += seen.credit_gated;
        total.blocked_outputs += seen.blocked_outputs;
      }
    }
  }
  // Heads starved of credit and gated outputs were both compared.
  EXPECT_GT(total.credit_gated, 0u);
  EXPECT_GT(total.blocked_outputs, 0u);
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) { return mmr::oracle::main(argc, argv); }
