// Network scaling bench (ISSUE 9): serial vs sharded engine throughput on
// generated large fabrics — 2-D tori at 64 / 256 / 1024 routers plus a
// k=8 fat-tree.  Reports cycles/s and arbiter-steps/s (routers x cycles
// per wall second: every router arbitrates once per cycle, so this is the
// fabric-level work rate) for net_threads=0 (serial reference) and
// net_threads=hw, and emits mmr-perf-v1 records for
// scripts/bench_compare.py.
//
// Arguments (key=value):
//   mode=smoke|quick|full  run scale (smoke: 64 routers only; quick adds
//                          256; full adds 1024 and the fat-tree)
//   threads=N              sharded engine width, 2..4096 (default:
//                          hardware, at least 2, so the parallel engine runs)
//   out=PATH               BENCH_network.json destination (default:
//                          BENCH_network.json in the cwd)
//   plus any SimConfig key (ports=, vcs=, seed=, ...)

#include <algorithm>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/perf/probe.hpp"
#include "mmr/perf/report.hpp"

namespace mmr {
namespace {

struct Fabric {
  std::string name;        ///< stable label component, e.g. "torus64"
  NetworkTopology topology;
};

struct ScaleArgs {
  std::string mode = "quick";
  std::string out = "BENCH_network.json";
  std::uint32_t threads = std::max(2u, std::thread::hardware_concurrency());
  std::vector<std::string> config_overrides;
};

/// `base` on `fabric`: the fat-tree needs more ports than the torus
/// default, and the simulation requires the config to match the wiring.
SimConfig on_fabric(SimConfig config, const Fabric& fabric) {
  config.ports = fabric.topology.ports_per_router();
  return config;
}

/// One timed run; returns the perf record and reports the wall rate.
perf::PerfRecord timed_run(const SimConfig& base, const Fabric& fabric,
                           std::uint32_t net_threads, const char* engine) {
  SimConfig config = on_fabric(base, fabric);
  config.net_threads = net_threads;
  Rng rng(config.seed, 0x5CA1E);
  CbrMixSpec mix;
  mix.target_load = 0.35;
  mix.classes = {kCbrHigh, kCbrMedium};
  mix.class_weights = {3.0, 1.0};
  Workload workload(fabric.topology);
  add_cbr_mix(workload, config, mix, rng);
  MmrSimulation simulation(config, std::move(workload));

  perf::PerfRecord record;
  record.label = "network/" + fabric.name + "/" + engine;
  record.kind = "network-scale";
  record.arbiter = config.arbiter;
  record.ports = config.ports;
  const perf::ProbeScope arm(&record.probe);
  const std::uint64_t start = perf::now_ns();
  (void)simulation.run();
  record.probe.add_run(config.total_cycles(), perf::now_ns() - start);
  return record;
}

double rate(const perf::PerfRecord& record) {
  const std::uint64_t wall = record.probe.run_wall_ns();
  if (wall == 0) return 0.0;
  return 1e9 * static_cast<double>(record.probe.simulated_cycles()) /
         static_cast<double>(wall);
}

}  // namespace
}  // namespace mmr

int main(int argc, char** argv) {
  using namespace mmr;
  ScaleArgs args;
  static constexpr const char* kModes[] = {"smoke", "quick", "full"};
  const spec::Grammar grammar{
      "network_scale", '=',
      {spec::bind<&ScaleArgs::mode>({.name = "mode", .words = kModes}),
       spec::bind<&ScaleArgs::out>({.name = "out"}),
       bench::threads<&ScaleArgs::threads>(2)}};
  spec::parse_command_line(grammar, &args, argc, argv, &args.config_overrides);

  SimConfig base;
  base.ports = 5;
  base.vcs_per_link = 32;
  if (args.mode == "smoke") {
    base.warmup_cycles = 100;
    base.measure_cycles = 400;
  } else if (args.mode == "full") {
    base.warmup_cycles = 1'000;
    base.measure_cycles = 5'000;
  } else {
    base.warmup_cycles = 500;
    base.measure_cycles = 2'000;
  }
  const std::vector<Fabric> fabrics = spec::or_exit([&] {
    apply_overrides(base, args.config_overrides);
    std::vector<Fabric> built;
    built.push_back({"torus64", NetworkTopology::torus2d(8, 8, base.ports)});
    if (args.mode != "smoke") {
      built.push_back(
          {"torus256", NetworkTopology::torus2d(16, 16, base.ports)});
    }
    if (args.mode == "full") {
      built.push_back(
          {"torus1024", NetworkTopology::torus2d(32, 32, base.ports)});
      built.push_back(
          {"fattree8", NetworkTopology::fat_tree(8, std::max(base.ports, 9u))});
    }
    for (const Fabric& fabric : built)
      (void)validate(on_fabric(base, fabric), fabric.topology);
    return built;
  });

  std::cout << "==== network scale (" << args.mode << ", "
            << base.total_cycles() << " cycles/run, sharded width "
            << args.threads << ") ====\n\n";
  AsciiTable table({"fabric", "routers", "engine", "cycles/s", "arbiters/s",
                    "speedup"});

  std::vector<perf::PerfRecord> records;
  for (const Fabric& fabric : fabrics) {
    const double routers = static_cast<double>(fabric.topology.routers());
    const perf::PerfRecord serial = timed_run(base, fabric, 0, "serial");
    const perf::PerfRecord sharded =
        timed_run(base, fabric, args.threads, "sharded");
    const double serial_rate = rate(serial);
    const double sharded_rate = rate(sharded);
    for (const perf::PerfRecord* record : {&serial, &sharded}) {
      const double r = rate(*record);
      table.add_row({fabric.name, AsciiTable::num(routers, 0),
                     record == &serial ? "serial" : "sharded",
                     AsciiTable::num(r, 0), AsciiTable::num(r * routers, 0),
                     record == &serial
                         ? std::string("1.00")
                         : AsciiTable::num(
                               serial_rate == 0.0 ? 0.0
                                                  : sharded_rate / serial_rate,
                               2)});
    }
    records.push_back(serial);
    records.push_back(sharded);
  }
  std::cout << table.render() << '\n';
  std::cout << "arbiters/s = routers x cycles/s (one switch arbitration per "
               "router per cycle).\nSpeedup is sharded/serial; expect ~1.0 "
               "on a single hardware thread — the\nsharded engine is "
               "bit-identical, so correctness never depends on width.\n";

  perf::PerfReportMeta meta;
  meta.mode = args.mode;
  meta.threads = args.threads;
  std::ofstream out(args.out);
  if (!out) {
    std::cerr << "cannot open '" << args.out << "' for writing\n";
    return 1;
  }
  perf::write_perf_json(out, meta, records);
  std::cout << "wrote " << records.size() << " records to " << args.out
            << "\n";
  return 0;
}
