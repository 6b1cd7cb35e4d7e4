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
//   threads=N              sharded engine width (default: hardware;
//                          promoted to >= 2 so the parallel engine runs)
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

ScaleArgs parse(int argc, char** argv) {
  ScaleArgs args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "mode") {
      args.mode = value;
    } else if (key == "out") {
      args.out = value;
    } else if (key == "threads") {
      args.threads =
          std::max(2u, static_cast<std::uint32_t>(std::stoul(value)));
    } else {
      args.config_overrides.push_back(arg);
    }
  }
  return args;
}

/// One timed run; returns the perf record and reports the wall rate.
perf::PerfRecord timed_run(const SimConfig& base, const Fabric& fabric,
                           std::uint32_t net_threads, const char* engine) {
  SimConfig config = base;
  config.net_threads = net_threads;
  // The fat-tree needs more ports than the torus default; the simulation
  // requires the config to match the fabric's wiring.
  config.ports = fabric.topology.ports_per_router();
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
  const ScaleArgs args = parse(argc, argv);

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
  try {
    apply_overrides(base, args.config_overrides);
    validate_specs(base);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    return 1;
  }

  std::vector<Fabric> fabrics;
  fabrics.push_back({"torus64", NetworkTopology::torus2d(8, 8, base.ports)});
  if (args.mode != "smoke") {
    fabrics.push_back(
        {"torus256", NetworkTopology::torus2d(16, 16, base.ports)});
  }
  if (args.mode == "full") {
    fabrics.push_back(
        {"torus1024", NetworkTopology::torus2d(32, 32, base.ports)});
    fabrics.push_back(
        {"fattree8", NetworkTopology::fat_tree(8, std::max(base.ports, 9u))});
  }

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
