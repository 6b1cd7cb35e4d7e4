// Sharded-engine equivalence soak (ISSUE 9, tier-2): over many seeds and
// both generated fabric families, the sharded network engine must land on
// the serial engine's exact final state hash and metrics.  Exit status
// gates: any divergence is a hard failure with the seed and fabric named.
//
// Arguments (key=value):
//   seeds=N     seeds per fabric (default 50)
//   threads=N   sharded width, 2..4096 (default: hardware, at least 2, so
//               the parallel engine actually runs)
//   big=1       append a single-seed 1024-router torus leg (the ISSUE 9
//               acceptance fabric; short run, still hash-exact)
//   plus any SimConfig key (ports=, vcs=, ...)

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "mmr/core/simulation.hpp"

namespace mmr {
namespace {

struct SoakArgs {
  std::uint32_t seeds = 50;
  std::uint32_t threads = std::max(2u, std::thread::hardware_concurrency());
  bool big = false;
  std::vector<std::string> config_overrides;
};

struct RunOutcome {
  std::uint64_t hash = 0;
  SimulationMetrics metrics;
};

RunOutcome run_engine(const SimConfig& config, const NetworkTopology& topology,
                      std::uint32_t net_threads) {
  SimConfig run_config = config;
  run_config.net_threads = net_threads;
  Rng rng(run_config.seed, 0x50AC);
  CbrMixSpec mix;
  mix.target_load = 0.4;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  Workload workload(topology);
  add_cbr_mix(workload, run_config, mix, rng);
  MmrSimulation simulation(run_config, std::move(workload));
  RunOutcome outcome;
  outcome.metrics = simulation.run();
  outcome.hash = simulation.state_hash();
  return outcome;
}

/// Compares one seed's serial and sharded runs; prints and counts failures.
bool check_pair(const std::string& fabric, std::uint64_t seed,
                const RunOutcome& serial, const RunOutcome& sharded) {
  const bool ok = serial.hash == sharded.hash &&
                  serial.metrics.flits_generated ==
                      sharded.metrics.flits_generated &&
                  serial.metrics.flits_delivered ==
                      sharded.metrics.flits_delivered &&
                  serial.metrics.flit_delay_us.mean() ==
                      sharded.metrics.flit_delay_us.mean() &&
                  serial.metrics.flit_delay_us.variance() ==
                      sharded.metrics.flit_delay_us.variance();
  if (!ok) {
    std::cout << "DIVERGED: " << fabric << " seed=" << seed << " hash "
              << serial.hash << " vs " << sharded.hash << ", delivered "
              << serial.metrics.flits_delivered << " vs "
              << sharded.metrics.flits_delivered << "\n";
  }
  return ok;
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) {
  using namespace mmr;
  SoakArgs args;
  const spec::Grammar grammar{
      "network_scale_soak", '=',
      {bench::seeds<&SoakArgs::seeds>(), bench::threads<&SoakArgs::threads>(2),
       spec::bind<&SoakArgs::big>({.name = "big"})}};
  spec::parse_command_line(grammar, &args, argc, argv, &args.config_overrides);

  SimConfig base;
  base.ports = 5;
  base.vcs_per_link = 32;
  base.warmup_cycles = 200;
  base.measure_cycles = 800;
  // Torus 4x4, fat-tree k=4 and, with big=1, the 1024-router torus.
  const std::vector<NetworkTopology> fabrics = spec::or_exit([&] {
    apply_overrides(base, args.config_overrides);
    std::vector<NetworkTopology> built = {
        NetworkTopology::torus2d(4, 4, base.ports),
        NetworkTopology::fat_tree(4, base.ports)};
    if (args.big) built.push_back(NetworkTopology::torus2d(32, 32, base.ports));
    for (const NetworkTopology& fabric : built) (void)validate(base, fabric);
    return built;
  });

  std::cout << "==== network shard equivalence soak: " << args.seeds
            << " seeds x {torus 4x4, fat-tree k=4}, serial vs "
            << args.threads << "-wide sharded ====\n";

  std::uint64_t checked = 0;
  std::uint64_t failures = 0;
  for (std::uint64_t seed = 1; seed <= args.seeds; ++seed) {
    SimConfig config = base;
    config.seed = seed;
    // Odd seeds also carry a fault plan so injector RNG-lane ownership
    // stays covered across the sweep.
    if (seed % 2 == 1) {
      config.fault_spec =
          "drop:0.01,credit_loss:0.005,resync_period:256,resync_timeout:512";
    }
    const char* const names[] = {"torus4x4", "fattree4"};
    for (std::size_t f = 0; f < 2; ++f) {
      const RunOutcome serial = run_engine(config, fabrics[f], 0);
      const RunOutcome sharded = run_engine(config, fabrics[f], args.threads);
      ++checked;
      if (!check_pair(names[f], seed, serial, sharded)) ++failures;
    }
  }

  if (args.big) {
    SimConfig config = base;
    config.warmup_cycles = 100;
    config.measure_cycles = 200;
    const NetworkTopology& big = fabrics[2];
    std::cout << "1024-router torus leg (" << config.total_cycles()
              << " cycles)...\n";
    const RunOutcome serial = run_engine(config, big, 0);
    const RunOutcome sharded = run_engine(config, big, args.threads);
    ++checked;
    if (!check_pair("torus32x32", config.seed, serial, sharded)) ++failures;
  }

  std::cout << checked << " pairs checked, " << failures << " diverged\n";
  if (failures != 0) {
    std::cout << "FAIL: sharded engine diverged from serial\n";
    return 1;
  }
  std::cout << "PASS: sharded engine bit-identical to serial on every pair\n";
  return 0;
}
