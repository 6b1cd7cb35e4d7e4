// Cluster-scale example: four MMRs in a bidirectional ring connect eight
// hosts (two per router).  CBR connections run between random host pairs
// across the ring — the paper's single-router evaluation extended to the
// multi-router network its conclusions call for.
//
//   ./cluster_ring [key=value ...] [routers=4] [load=0.6] [traffic=cbr|vbr]

#include <cstdio>
#include <iostream>

#include "mmr/core/simulation.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/table.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  SimConfig config;
  config.measure_cycles = 150'000;

  struct Options {
    std::uint32_t routers = 4;
    double load = 0.6;
    std::string traffic = "cbr";
  } options;
  static constexpr const char* kTraffic[] = {"cbr", "vbr"};
  const spec::Grammar grammar{
      "cluster_ring", '=',
      {spec::bind<&Options::routers>({.name = "routers", .lo = 2}),
       spec::bind<&Options::load>({.name = "load", .dlo = spec::kPositive}),
       spec::bind<&Options::traffic>({.name = "traffic", .words = kTraffic})}};
  std::vector<std::string> overrides;
  spec::parse_command_line(grammar, &options, argc, argv, &overrides);
  const auto& [routers, load, traffic] = options;
  const bool vbr = traffic == "vbr";
  const NetworkTopology ring = spec::or_exit([&] {
    apply_overrides(config, overrides);
    // A ring router needs >= 3 ports: a smaller ports= override throws.
    NetworkTopology built =
        NetworkTopology::bidirectional_ring(routers, config.ports);
    (void)validate(config, built);
    return built;
  });
  Rng rng(config.seed, 0xC1);
  Workload workload(ring);
  if (vbr) {
    VbrMixSpec mix;
    mix.target_load = load;
    mix.trace_gops = 8;
    add_vbr_mix(workload, config, mix, rng);
  } else {
    CbrMixSpec mix;
    mix.target_load = load;
    add_cbr_mix(workload, config, mix, rng);
  }

  std::printf("Cluster ring: %u MMRs, %u hosts, %zu %s connections, %s "
              "arbiter, %.0f%% load per host link\n",
              routers, routers * (config.ports - 2),
              workload.connections.size(), vbr ? "MPEG-2 VBR" : "CBR",
              config.arbiter.c_str(), load * 100);

  const SimulationMetrics metrics =
      run_or_exit(config, std::move(workload));

  std::printf("\nAfter %llu measured cycles:\n",
              static_cast<unsigned long long>(config.measure_cycles));
  std::printf("  delivered %llu of %llu generated flits (%s)\n",
              static_cast<unsigned long long>(metrics.flits_delivered),
              static_cast<unsigned long long>(metrics.flits_generated),
              metrics.saturated() ? "SATURATED" : "keeping up");
  std::printf("  end-to-end delay: mean %.1f us, max %.1f us\n",
              metrics.flit_delay_us.mean(), metrics.flit_delay_us.max());
  std::printf("  mean path length: %.2f routers (max %.0f)\n",
              metrics.delivered_hops.mean(),
              static_cast<double>(metrics.delivered_hops.max()));

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
