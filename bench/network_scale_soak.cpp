// Sharded-engine equivalence soak (ISSUE 9, tier-2): over many seeds and
// both generated fabric families, the sharded network engine must land on
// the serial engine's exact final state hash and metrics.  Exit status
// gates: any divergence is a hard failure with the seed and fabric named.
//
// Arguments (key=value):
//   seeds=N     seeds per fabric (default 50)
//   threads=N   sharded width (default: hardware; 1 is promoted to 2 so
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
  std::uint64_t seeds = 50;
  std::uint32_t threads = std::max(2u, std::thread::hardware_concurrency());
  bool big = false;
  std::vector<std::string> config_overrides;
};

SoakArgs parse(int argc, char** argv) {
  SoakArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "seeds") {
      args.seeds = std::stoull(value);
    } else if (key == "threads") {
      args.threads = std::max(
          2u, static_cast<std::uint32_t>(std::stoul(value)));
    } else if (key == "big") {
      args.big = value != "0";
    } else {
      args.config_overrides.push_back(arg);
    }
  }
  return args;
}

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
  const SoakArgs args = parse(argc, argv);

  SimConfig base;
  base.ports = 5;
  base.vcs_per_link = 32;
  base.warmup_cycles = 200;
  base.measure_cycles = 800;
  try {
    apply_overrides(base, args.config_overrides);
    validate_specs(base);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }

  std::cout << "==== network shard equivalence soak: " << args.seeds
            << " seeds x {torus 4x4, fat-tree k=4}, serial vs "
            << args.threads << "-wide sharded ====\n";

  const NetworkTopology torus = NetworkTopology::torus2d(4, 4, base.ports);
  const NetworkTopology tree = NetworkTopology::fat_tree(4, base.ports);

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
    const std::pair<const char*, const NetworkTopology*> fabrics[] = {
        {"torus4x4", &torus}, {"fattree4", &tree}};
    for (const auto& [name, topology] : fabrics) {
      const RunOutcome serial = run_engine(config, *topology, 0);
      const RunOutcome sharded = run_engine(config, *topology, args.threads);
      ++checked;
      if (!check_pair(name, seed, serial, sharded)) ++failures;
    }
  }

  if (args.big) {
    SimConfig config = base;
    config.warmup_cycles = 100;
    config.measure_cycles = 200;
    const NetworkTopology big =
        NetworkTopology::torus2d(32, 32, base.ports);
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
