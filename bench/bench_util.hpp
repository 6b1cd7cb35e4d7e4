// Shared plumbing for the paper-reproduction bench binaries.
//
// Every bench accepts `key=value` arguments: SimConfig keys (see
// src/mmr/sim/config.hpp) plus the bench keys
//   loads=0.1,0.3,...   sweep points (fractions)
//   arbiters=coa,wfa    arbiters to compare
//   threads=N           parallel sweep workers (0 = hardware)
//   full=1              paper-scale cycle counts (also via MMR_FULL=1)
#pragma once

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "mmr/core/experiment.hpp"
#include "mmr/core/report.hpp"
#include "mmr/core/simulation.hpp"

namespace mmr::bench {

struct BenchArgs {
  std::vector<double> loads;
  std::vector<std::string> arbiters = {"coa", "wfa"};
  std::size_t threads = 0;
  bool full = false;
  std::vector<std::string> config_overrides;
};

inline std::vector<std::string> split(const std::string& text, char sep) {
  std::vector<std::string> parts;
  std::istringstream in(text);
  std::string part;
  while (std::getline(in, part, sep)) parts.push_back(part);
  return parts;
}

inline BenchArgs parse_args(int argc, char** argv) {
  BenchArgs args;
  if (const char* env = std::getenv("MMR_FULL");
      env != nullptr && std::string(env) == "1") {
    args.full = true;
  }
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    const std::string key = eq == std::string::npos ? arg : arg.substr(0, eq);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    if (key == "loads") {
      args.loads.clear();
      for (const std::string& part : split(value, ',')) {
        args.loads.push_back(std::stod(part));
      }
    } else if (key == "arbiters") {
      args.arbiters = split(value, ',');
    } else if (key == "threads") {
      args.threads = std::stoul(value);
    } else if (key == "full") {
      args.full = value != "0";
    } else {
      args.config_overrides.push_back(arg);
    }
  }
  return args;
}

/// Applies run-length presets and user overrides to a config; a bad
/// override or spec prints "error: ..." and exits 1.
inline void apply_run_scale(SimConfig& config, const BenchArgs& args,
                            Cycle quick_measure, Cycle full_measure) {
  config.warmup_cycles = args.full ? 50'000 : 20'000;
  config.measure_cycles = args.full ? full_measure : quick_measure;
  try {
    apply_overrides(config, args.config_overrides);
    validate_specs(config);
  } catch (const std::exception& error) {
    std::cerr << "error: " << error.what() << '\n';
    std::exit(1);
  }
}

inline void print_header(const std::string& title, const SweepSpec& spec,
                         bool full) {
  std::cout << "==== " << title << " ====\n";
  std::cout << "router " << spec.base.ports << "x" << spec.base.ports << ", "
            << spec.base.vcs_per_link << " VCs/link, "
            << spec.base.candidate_levels << " candidate levels, "
            << to_string(spec.base.priority_scheme) << " priorities, "
            << (spec.base.link_bandwidth_bps / 1e9) << " Gbps links, "
            << spec.base.flit_bits << "-bit flits\n";
  std::cout << "cycles: " << spec.base.warmup_cycles << " warmup + "
            << spec.base.measure_cycles << " measured ("
            << (full ? "full/paper scale" : "quick preset; MMR_FULL=1 for "
                                            "paper scale")
            << ")\n\n";
}

inline void print_csv_block(const std::vector<SweepPoint>& points,
                            const std::vector<std::pair<std::string,
                                                        MetricExtractor>>&
                                extractors) {
  std::cout << "\n--- CSV ---\n";
  write_sweep_csv(std::cout, points, extractors);
  std::cout << "--- end CSV ---\n";
}

}  // namespace mmr::bench
