// Arbiter playground: single-step the switch schedulers on a hand-crafted
// contention scenario and print every decision — the fastest way to see how
// COA's port ordering + priority arbitration differs from WFA's positional
// wave.  Takes an optional list of arbiters.
//
//   ./arbiter_playground [coa wfa wwfa islip pim greedy maxmatch]

#include <cstdio>
#include <iostream>

#include "mmr/arbiter/factory.hpp"
#include "mmr/arbiter/verify.hpp"
#include "mmr/sim/spec_parser.hpp"
#include "mmr/sim/table.hpp"

namespace {

mmr::Candidate make_candidate(std::uint32_t input, std::uint32_t output,
                              std::uint32_t level, mmr::Priority priority,
                              std::uint32_t vc) {
  mmr::Candidate c;
  c.input = static_cast<std::uint16_t>(input);
  c.output = static_cast<std::uint16_t>(output);
  c.level = static_cast<std::uint8_t>(level);
  c.priority = priority;
  c.vc = vc;
  return c;
}

/// The scenario: a hot output (2) contested by three inputs with very
/// different priorities, plus secondary candidates that a good scheduler
/// should fall back to.
mmr::CandidateSet scenario() {
  mmr::CandidateSet set(4, 2);
  set.add(make_candidate(0, 2, 0, 5000, 10));  // urgent video flit
  set.add(make_candidate(0, 0, 1, 120, 11));
  set.add(make_candidate(1, 2, 0, 40, 20));    // casual contender
  set.add(make_candidate(1, 3, 1, 30, 21));
  set.add(make_candidate(2, 2, 0, 900, 30));   // mid priority contender
  set.add(make_candidate(2, 1, 1, 850, 31));
  set.add(make_candidate(3, 1, 0, 60, 40));    // only level-0 for output 1
  return set;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mmr;
  std::vector<std::string> names(argv + 1, argv + argc);
  if (names.empty()) names = arbiter_names();

  const CandidateSet set = scenario();
  std::cout << "Scenario: selection matrix (input, level) -> output "
               "[priority]\n";
  for (const Candidate& c : set.all()) {
    std::printf("  input %u level %u -> output %u  [prio %5llu, vc %u]\n",
                c.input, c.level, c.output,
                static_cast<unsigned long long>(c.priority), c.vc);
  }
  std::cout << "\nOutput 2 is hot: inputs 0 (prio 5000), 1 (40), 2 (900) all "
               "want it at level 0.\n\n";

  AsciiTable table({"arbiter", "matching", "size", "hot output 2 went to",
                    "total granted priority"});
  for (const std::string& name : names) {
    const std::unique_ptr<SwitchArbiter> arbiter = spec::or_exit(
        [&] { return make_arbiter(name, 4, Rng(0x5EED, 0x9A9)); });
    const Matching matching = arbiter->arbitrate(set);
    const MatchingCheck check = check_matching(set, matching);
    if (!check.valid) {
      std::cerr << name << " produced an invalid matching: " << check.problem
                << '\n';
      return 1;
    }
    std::string pairs;
    Priority total = 0;
    for (std::uint32_t input = 0; input < 4; ++input) {
      const std::int32_t output = matching.output_of(input);
      if (output == -1) continue;
      if (!pairs.empty()) pairs += ", ";
      pairs += std::to_string(input) + "->" + std::to_string(output);
      total += set.at(static_cast<std::size_t>(matching.candidate_of(input)))
                   .priority;
    }
    const std::int32_t hot = matching.input_of(2);
    table.add_row({name, pairs, std::to_string(matching.size()),
                   hot == -1 ? "-" : "input " + std::to_string(hot),
                   std::to_string(total)});
  }
  std::cout << table.render();
  std::cout << "\nWhat to look for: COA hands output 2 to input 0 (highest "
               "priority) and still\nfinds work for the others; the fixed "
               "WFA grants by position, not priority.\n";
  return 0;
}
