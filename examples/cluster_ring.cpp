// Cluster-scale example: four MMRs in a bidirectional ring connect eight
// hosts (two per router).  CBR connections run between random host pairs
// across the ring — the paper's single-router evaluation extended to the
// multi-router network its conclusions call for.
//
//   ./cluster_ring [key=value ...] [routers=4] [load=0.6] [traffic=cbr|vbr]

#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <stdexcept>

#include "mmr/network/network.hpp"
#include "mmr/sim/table.hpp"
#include "mmr/snapshot/signals.hpp"
#include "mmr/snapshot/spec.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  SimConfig config;
  config.measure_cycles = 150'000;

  std::uint32_t routers = 4;
  double load = 0.6;
  bool vbr = false;
  std::vector<std::string> overrides;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("routers=", 0) == 0) {
      routers = static_cast<std::uint32_t>(std::stoul(arg.substr(8)));
    } else if (arg.rfind("load=", 0) == 0) {
      load = std::stod(arg.substr(5));
    } else if (arg == "traffic=vbr") {
      vbr = true;
    } else if (arg == "traffic=cbr") {
      vbr = false;
    } else {
      overrides.push_back(arg);
    }
  }
  try {
    apply_overrides(config, overrides);
    // Fail fast on a bad spec (parsed again at construction).
    validate_specs(config);
  } catch (const std::exception& error) {
    const std::string what = error.what();
    std::cerr << (what.rfind("error:", 0) == 0 ? "" : "error: ") << what
              << '\n';
    return 1;
  }

  // Degenerate routers= values throw from the topology factory; surface
  // them as a clean diagnostic rather than an uncaught-exception abort.
  const NetworkTopology ring = [&]() -> NetworkTopology {
    try {
      return NetworkTopology::bidirectional_ring(routers, config.ports);
    } catch (const std::exception& error) {
      std::cerr << "error: " << error.what() << '\n';
      std::exit(1);
    }
  }();
  Rng rng(config.seed, 0xC1);
  NetworkWorkload workload = [&] {
    if (vbr) {
      VbrMixSpec mix;
      mix.target_load = load;
      mix.trace_gops = 8;
      return build_network_vbr_mix(config, ring, mix, rng);
    }
    CbrMixSpec mix;
    mix.target_load = load;
    return build_network_cbr_mix(config, ring, mix, rng);
  }();

  std::printf("Cluster ring: %u MMRs, %u hosts, %zu %s connections, %s "
              "arbiter, %.0f%% load per host link\n",
              routers, routers * (config.ports - 2),
              workload.connections.size(), vbr ? "MPEG-2 VBR" : "CBR",
              config.arbiter.c_str(), load * 100);

  NetworkMetrics metrics;
  try {
    MmrNetworkSimulation simulation(config, std::move(workload));
    metrics = simulation.run();
  } catch (const snapshot::Interrupted& stop) {
    return snapshot::report_interrupted(stop);
  } catch (const std::invalid_argument& error) {  // fault= off the topology
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }

  std::printf("\nAfter %llu measured cycles:\n",
              static_cast<unsigned long long>(config.measure_cycles));
  std::printf("  delivered %llu of %llu generated flits (%s)\n",
              static_cast<unsigned long long>(metrics.flits_delivered),
              static_cast<unsigned long long>(metrics.flits_generated),
              metrics.saturated() ? "SATURATED" : "keeping up");
  std::printf("  end-to-end delay: mean %.1f us, max %.1f us\n",
              metrics.flit_delay_us.mean(), metrics.flit_delay_us.max());
  std::printf("  mean path length: %.2f routers (max %.0f)\n",
              metrics.delivered_hops.mean(), metrics.delivered_hops.max());

  AsciiTable table({"class", "delivered", "mean delay (us)", "max (us)"});
  for (const ClassMetrics& cls : metrics.per_class) {
    table.add_row({cls.label, std::to_string(cls.flits_delivered),
                   AsciiTable::num(cls.flit_delay_us.mean(), 1),
                   AsciiTable::num(cls.flit_delay_us.max(), 1)});
  }
  std::cout << '\n' << table.render();

  if (metrics.frames_completed > 0) {
    std::printf("\nvideo: %llu frames completed, mean frame delay %.1f us\n",
                static_cast<unsigned long long>(metrics.frames_completed),
                metrics.frame_delay_us.mean());
  }
  std::printf("\nper-router crossbar utilization:");
  for (std::size_t r = 0; r < metrics.router_utilization.size(); ++r) {
    std::printf(" R%zu=%.1f%%", r, metrics.router_utilization[r] * 100);
  }
  std::printf("\n");
  return 0;
}
