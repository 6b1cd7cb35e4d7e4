// Shared plumbing for the bench binaries.
//
// Every bench reads its command line with one spec::parse_command_line
// call, through a grammar of exactly the keys it reads (README "Spec
// reference" lists them); the rows below are the ones several mains share.
#pragma once

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "mmr/arbiter/factory.hpp"
#include "mmr/core/experiment.hpp"
#include "mmr/core/report.hpp"
#include "mmr/core/simulation.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/thread_pool.hpp"

namespace mmr::bench {

/// The registered arbiter names, as the words an `arbiters=` element takes.
inline spec::Words arbiter_words() {
  static const std::vector<const char*> words = [] {
    std::vector<const char*> out;
    for (const std::string& name : arbiter_names()) out.push_back(name.c_str());
    return out;
  }();
  return words;
}

// The shared rows, bound to the main's own field (`F...` as in spec::bind).
template <auto... F>
spec::Key loads() {  ///< sweep points, fractions of link bandwidth
  return spec::bind<F...>({.name = "loads", .dlo = spec::kPositive});
}
template <auto... F>
spec::Key arbiters() {
  return spec::bind<F...>({.name = "arbiters", .words = arbiter_words()});
}
template <auto... F>
spec::Key threads(std::uint64_t lo = 0) {  ///< 0: hardware concurrency
  return spec::bind<F...>({.name = "threads", .lo = lo, .hi = kMaxThreads});
}
template <auto... F>
spec::Key full() { return spec::bind<F...>({.name = "full"}); }
template <auto... F>
spec::Key seeds() { return spec::bind<F...>({.name = "seeds", .lo = 1}); }
template <auto... F>
spec::Key ports(const char* name = "ports") {
  return spec::bind<F...>({.name = name, .lo = 2, .hi = kMaxPorts});
}

/// A sweep bench's keys.
struct BenchArgs {
  std::vector<double> loads;  ///< empty: the bench's own sweep points
  std::vector<std::string> arbiters = {"coa", "wfa"};
  std::size_t threads = 0;
  bool full = std::getenv("MMR_FULL") != nullptr &&
              std::string_view(std::getenv("MMR_FULL")) == "1";
  std::uint32_t routers = 4;  ///< ring size
  std::vector<std::string> config_overrides;
};

/// Parses a sweep bench's command line through a grammar named after the
/// binary: the BenchArgs rows named in `keys`, plus `full` (apply_run_scale
/// reads it); every other token is a SimConfig override.
inline BenchArgs parse_args(int argc, char** argv,
                            std::initializer_list<std::string_view> keys) {
  using A = BenchArgs;
  static const std::vector<spec::Key> rows = {
      loads<&A::loads>(), arbiters<&A::arbiters>(), threads<&A::threads>(),
      spec::bind<&A::routers>({.name = "routers", .lo = 2}), full<&A::full>()};
  const char* name = argc > 0 ? argv[0] : "bench";
  if (const char* slash = std::strrchr(name, '/')) name = slash + 1;
  spec::Grammar grammar{name, '=', {}};
  for (const spec::Key& row : rows)
    if (row.name == std::string_view("full") ||
        std::find(keys.begin(), keys.end(), row.name) != keys.end())
      grammar.keys.push_back(row);
  MMR_ASSERT_MSG(grammar.keys.size() == keys.size() + 1, "unknown bench key");
  BenchArgs args;
  spec::parse_command_line(grammar, &args, argc, argv, &args.config_overrides);
  return args;
}

/// The run-length presets: quick, or paper scale under `full`.
inline void set_run_length(SimConfig& config, const BenchArgs& args,
                           Cycle quick_measure, Cycle full_measure) {
  config.warmup_cycles = args.full ? 50'000 : 20'000;
  config.measure_cycles = args.full ? full_measure : quick_measure;
}

/// Applies run-length presets and user overrides to a one-router config
/// (configure()); a bad override or spec prints "error: ..." and exits 1.
inline void apply_run_scale(SimConfig& config, const BenchArgs& args,
                            Cycle quick_measure, Cycle full_measure) {
  set_run_length(config, args, quick_measure, full_measure);
  configure(config, args.config_overrides);
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
