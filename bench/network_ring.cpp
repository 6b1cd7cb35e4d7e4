// Extension bench (the paper's future work, Section 6): a network of
// several MMRs.  A bidirectional ring of routers carries a CBR mix between
// hosts on different routers; the COA-vs-WFA comparison is repeated with
// multi-hop paths and hop-by-hop credit flow control.

#include <iostream>

#include "bench_util.hpp"
#include "mmr/core/simulation.hpp"

int main(int argc, char** argv) {
  using namespace mmr;
  bench::BenchArgs args =
      bench::parse_args(argc, argv, {"loads", "arbiters", "routers"});
  if (args.loads.empty()) {
    args.loads = args.full
                     ? std::vector<double>{0.30, 0.45, 0.60, 0.70, 0.80, 0.90}
                     : std::vector<double>{0.40, 0.60, 0.80};
  }

  SimConfig base;
  bench::set_run_length(base, args, /*quick=*/120'000, /*full=*/500'000);
  const NetworkTopology ring = spec::or_exit([&] {
    apply_overrides(base, args.config_overrides);
    // A ring router needs >= 3 ports: a smaller ports= override throws.
    NetworkTopology built =
        NetworkTopology::bidirectional_ring(args.routers, base.ports);
    (void)validate(base, built);
    return built;
  });
  std::cout << "==== Network extension: " << args.routers
            << "-router bidirectional ring of " << base.ports << "x"
            << base.ports << " MMRs ====\n"
            << "Per router: 2 channel ports, " << base.ports - 2
            << " host ports; CBR mix per host port; shortest-path PCS "
               "routing;\nhop-by-hop credit flow control (a VC competes only "
               "when its next hop has buffer space).\n\n";

  CbrMixSpec mix;
  mix.classes = {kCbrHigh, kCbrMedium, kCbrLow};
  mix.class_weights = {1.0, 1.0, 1.0};

  struct Cell {
    SimulationMetrics metrics;
  };
  std::vector<std::string> header = {"load %"};
  for (const std::string& arbiter : args.arbiters) {
    header.push_back(arbiter + " delay us");
    header.push_back(arbiter + " delivered %");
  }
  AsciiTable table(header);

  std::vector<std::vector<SimulationMetrics>> grid;
  for (double load : args.loads) {
    std::vector<SimulationMetrics> row;
    for (const std::string& arbiter : args.arbiters) {
      SimConfig config = base;
      config.arbiter = arbiter;
      Rng rng(config.seed, 0x717 + static_cast<std::uint64_t>(load * 1000));
      CbrMixSpec spec = mix;
      spec.target_load = load;
      Workload workload(ring);
      add_cbr_mix(workload, config, spec, rng);
      row.push_back(run_or_exit(config, std::move(workload)));
    }
    std::vector<std::string> cells = {AsciiTable::num(load * 100, 0)};
    for (const SimulationMetrics& m : row) {
      cells.push_back(AsciiTable::num(m.flit_delay_us.mean(), 1));
      cells.push_back(AsciiTable::num(
          m.flits_generated == 0
              ? 0.0
              : 100.0 * static_cast<double>(m.flits_delivered) /
                    static_cast<double>(m.flits_generated),
          1));
    }
    table.add_row(std::move(cells));
    grid.push_back(std::move(row));
  }
  std::cout << "End-to-end flit delay and delivery ratio vs offered load\n";
  std::cout << table.render() << '\n';

  // Hop distribution + per-router utilization at the heaviest load.
  const SimulationMetrics& heavy = grid.back().front();
  std::cout << "At " << AsciiTable::num(args.loads.back() * 100, 0)
            << "% load with " << args.arbiters.front()
            << ": mean path length "
            << AsciiTable::num(heavy.delivered_hops.mean(), 2)
            << " routers (max "
            << heavy.delivered_hops.max()
            << "); per-router crossbar utilization:";
  for (double u : heavy.router_utilization) {
    std::cout << ' ' << AsciiTable::num(u * 100, 1) << '%';
  }
  std::cout << "\n\nExpected shape: multi-hop paths raise base delay by "
               "roughly (hops-1) flit cycles\nplus per-hop queueing; COA "
               "retains its advantage near saturation because every\nhop "
               "arbitrates with connection priorities.\n\n";

  // VBR section: MPEG-2 video across the same ring (SR injection).
  std::cout << "---- MPEG-2 VBR across the ring (SR injection) ----\n";
  AsciiTable vbr_table({"load %", "arbiter", "frame delay us",
                        "frames", "delivered %"});
  for (double load : {args.loads.front(), args.loads.back()}) {
    for (const std::string& arbiter : args.arbiters) {
      SimConfig config = base;
      config.arbiter = arbiter;
      config.vcs_per_link = std::max(config.vcs_per_link, 512u);
      Rng rng(config.seed, 0x818 + static_cast<std::uint64_t>(load * 1000));
      VbrMixSpec spec;
      spec.target_load = load;
      spec.trace_gops = 6;
      Workload workload(ring);
      add_vbr_mix(workload, config, spec, rng);
      const SimulationMetrics m = run_or_exit(config, std::move(workload));
      vbr_table.add_row(
          {AsciiTable::num(load * 100, 0), arbiter,
           AsciiTable::num(m.frame_delay_us.mean(), 1),
           std::to_string(m.frames_completed),
           AsciiTable::num(m.flits_generated == 0
                               ? 0.0
                               : 100.0 *
                                     static_cast<double>(m.flits_delivered) /
                                     static_cast<double>(m.flits_generated),
                           1)});
    }
  }
  std::cout << vbr_table.render();
  return 0;
}
