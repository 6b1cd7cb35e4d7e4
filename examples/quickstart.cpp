// Quickstart: build a CBR workload, run the MMR with the Candidate-Order
// Arbiter, and print the headline metrics.
//
//   ./quickstart [key=value ...]        (see src/mmr/sim/config.hpp)
//
// Example: ./quickstart arbiter=wfa measure=100000

#include <cstdio>
#include <iostream>
#include <stdexcept>

#include "mmr/core/simulation.hpp"
#include "mmr/sim/table.hpp"
#include "mmr/snapshot/signals.hpp"

int main(int argc, char** argv) {
  mmr::SimConfig config;
  config.measure_cycles = 150'000;

  std::vector<std::string> overrides(argv + 1, argv + argc);
  try {
    mmr::apply_overrides(config, overrides);
    mmr::validate_specs(config);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }

  // A random mix of the paper's three CBR classes at 60% offered load.
  mmr::Rng rng(config.seed, /*stream=*/1);
  mmr::CbrMixSpec mix;
  mix.target_load = 0.60;
  mmr::Workload workload = mmr::build_cbr_mix(config, mix, rng);

  std::printf("MMR quickstart: %ux%u router, %s arbiter, %s priorities\n",
              config.ports, config.ports, config.arbiter.c_str(),
              mmr::to_string(config.priority_scheme));
  std::printf("  workload: %zu CBR connections, generated load %.1f%%\n",
              workload.size(),
              workload.generated_load(config.time_base()) * 100.0);

  mmr::SimulationMetrics metrics;
  try {
    mmr::MmrSimulation simulation(config, std::move(workload));
    metrics = simulation.run();
  } catch (const mmr::snapshot::Interrupted& stop) {
    return mmr::snapshot::report_interrupted(stop);
  } catch (const std::invalid_argument& error) {  // fault= off the topology
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }

  std::printf("\nafter %llu warmup + %llu measured cycles (flit cycle %.3f us):\n",
              static_cast<unsigned long long>(config.warmup_cycles),
              static_cast<unsigned long long>(config.measure_cycles),
              metrics.flit_cycle_us);
  std::printf("  delivered load        : %.1f%% (generated %.1f%%)\n",
              metrics.delivered_load * 100.0,
              metrics.generated_load_measured * 100.0);
  std::printf("  crossbar utilization  : %.1f%%\n",
              metrics.crossbar_utilization * 100.0);
  std::printf("  mean flit delay       : %.1f us (p99 %s)\n",
              metrics.flit_delay_us.mean(),
              metrics.per_class.empty() ? "-" : "per class below");
  std::printf("  backlog at end        : %llu flits\n",
              static_cast<unsigned long long>(metrics.backlog_flits));

  mmr::AsciiTable table({"class", "flits", "mean delay (us)", "p99 (us)",
                         "max (us)"});
  for (const mmr::ClassMetrics& cls : metrics.per_class) {
    table.add_row({cls.label, std::to_string(cls.flits_delivered),
                   mmr::AsciiTable::num(cls.flit_delay_us.mean(), 2),
                   mmr::AsciiTable::num(cls.flit_delay_us.p99(), 2),
                   mmr::AsciiTable::num(cls.flit_delay_us.max(), 2)});
  }
  std::cout << '\n' << table.render();
  return 0;
}
