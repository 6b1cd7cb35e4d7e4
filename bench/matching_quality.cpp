// Section 4 context: WFA "achieves nearly the same performance as complex
// theoretical schemes" on matching size, and beats PIM-class schemes.  This
// bench measures mean matching size (fraction of the true maximum matching,
// computed by Hopcroft-Karp) for every arbiter over random request
// ensembles of varying density and port count.

#include <cmath>
#include <iostream>
#include <vector>

#include "mmr/arbiter/factory.hpp"
#include "mmr/arbiter/maxmatch.hpp"
#include "mmr/arbiter/verify.hpp"
#include "mmr/sim/rng.hpp"
#include "mmr/sim/table.hpp"

namespace {

/// Random candidate set: each input contributes `levels` candidates with
/// distinct VCs; outputs drawn uniformly; priorities random.
mmr::CandidateSet random_candidates(std::uint32_t ports, std::uint32_t levels,
                                    double request_probability,
                                    mmr::Rng& rng) {
  mmr::CandidateSet set(ports, levels);
  for (std::uint32_t input = 0; input < ports; ++input) {
    mmr::Priority prev = ~mmr::Priority{0};
    for (std::uint32_t level = 0; level < levels; ++level) {
      if (!rng.chance(request_probability)) break;  // levels are contiguous
      mmr::Candidate c;
      c.input = static_cast<std::uint16_t>(input);
      c.output = static_cast<std::uint16_t>(rng.uniform(ports));
      c.level = static_cast<std::uint8_t>(level);
      c.vc = level;
      c.priority = std::min<mmr::Priority>(prev, 1 + rng.uniform(1u << 20));
      prev = c.priority;
      set.add(c);
    }
  }
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  std::uint32_t trials = 2000;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("trials=", 0) == 0) trials = static_cast<std::uint32_t>(std::stoul(arg.substr(7)));
  }

  std::cout << "==== Matching quality: mean matching size / maximum matching "
               "====\n"
            << trials << " random candidate sets per cell; 4 candidate "
               "levels; request density 0.9 per level\n"
            << "cells are mean +/- sample stddev of the per-trial ratio\n\n";

  const std::vector<std::uint32_t> port_counts = {4, 8, 16};
  std::vector<std::string> header = {"arbiter"};
  for (std::uint32_t ports : port_counts)
    header.push_back(std::to_string(ports) + "x" + std::to_string(ports));
  AsciiTable table(header);

  for (const std::string& name : arbiter_names()) {
    std::vector<std::string> row = {name};
    for (std::uint32_t ports : port_counts) {
      Rng workload_rng(0x5EED, ports);  // same ensembles for every arbiter
      auto arbiter = make_arbiter(name, ports, Rng(0x5EED, 0xA1));
      std::vector<double> ratios;
      MaxMatchArbiter oracle(ports);
      for (std::uint32_t t = 0; t < trials; ++t) {
        const CandidateSet set =
            random_candidates(ports, 4, 0.9, workload_rng);
        if (set.empty()) continue;
        const Matching matching = arbiter->arbitrate(set);
        const MatchingCheck check = check_matching(set, matching);
        if (!check.valid) {
          std::cerr << "INVALID matching from " << name << ": "
                    << check.problem << '\n';
          return 1;
        }
        const Matching best = oracle.arbitrate(set);
        if (best.size() == 0) continue;
        ratios.push_back(static_cast<double>(matching.size()) /
                         static_cast<double>(best.size()));
      }
      const auto n = static_cast<double>(ratios.size());
      double mean = 0.0;
      for (const double r : ratios) mean += r / n;
      double m2 = 0.0;
      for (const double r : ratios) m2 += (r - mean) * (r - mean);
      // The trials sample an infinite ensemble, so spread uses the sample
      // (n-1) convention.
      const double stddev = n < 2 ? 0.0 : std::sqrt(m2 / (n - 1));
      row.push_back(AsciiTable::num(mean, 4) + " +/- " +
                    AsciiTable::num(stddev, 3));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.render();
  std::cout << "\nExpected ordering (paper Section 4): wfa/wwfa ~ maximal "
               "(close to 1.0), above\nsingle-iteration pim1/islip1; coa is "
               "priority-aware yet stays near-maximal.\n";
  return 0;
}
