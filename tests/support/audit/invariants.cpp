#include "support/audit/invariants.hpp"

#include <algorithm>
#include <string>

#include "mmr/arbiter/maxmatch.hpp"
#include "mmr/arbiter/verify.hpp"

namespace mmr::audit {
namespace {

// Built with += rather than operator+ chains: GCC 12's -Wrestrict raises a
// false positive (PR 105651) on `const char* + std::string&&` when inlining
// happens to expose the insert() path.
std::string pair_str(std::uint32_t input, std::uint32_t output) {
  std::string out = "(";
  out += std::to_string(input);
  out += " -> ";
  out += std::to_string(output);
  out += ')';
  return out;
}

}  // namespace

std::uint32_t oracle_max_matching(const CandidateSet& candidates) {
  std::vector<std::vector<std::uint32_t>> adj(candidates.ports());
  for (const Candidate& c : candidates.all()) {
    std::vector<std::uint32_t>& outs = adj[c.input];
    if (std::find(outs.begin(), outs.end(), c.output) == outs.end())
      outs.push_back(c.output);
  }
  return MaxMatchArbiter::max_matching_size(candidates.ports(), adj);
}

std::vector<Violation> check_step(const CandidateSet& candidates,
                                  const Matching& matching,
                                  const ArbiterTraits& traits,
                                  std::uint32_t iterations, std::size_t step) {
  std::vector<Violation> violations;

  const MatchingCheck check = check_matching(candidates, matching);
  if (!check.valid) {
    violations.push_back({"validity", step, check.problem});
    // A structurally broken matching makes the remaining checks meaningless.
    return violations;
  }

  const bool maximal = is_maximal(candidates, matching);
  if (traits.maximal && !maximal) {
    violations.push_back(
        {"maximality", step,
         "matching of size " + std::to_string(matching.size()) +
             " leaves a request with both endpoints free"});
  }
  if (traits.exact_maximum) {
    const std::uint32_t oracle = oracle_max_matching(candidates);
    if (matching.size() != oracle) {
      violations.push_back(
          {"exact-maximum", step,
         "matching size " + std::to_string(matching.size()) +
             " != Hopcroft-Karp maximum " + std::to_string(oracle)});
    }
  }
  if (traits.iteration_bounded && !maximal && matching.size() < iterations) {
    violations.push_back(
        {"iteration-bound", step,
         "non-maximal matching of size " + std::to_string(matching.size()) +
             " after " + std::to_string(iterations) +
             " iterations (each iteration must add a match or converge)"});
  }
  if (traits.priority_ordered) {
    // A granted candidate loses to a strictly higher-priority candidate for
    // the same output only if that candidate's input went entirely
    // unmatched: the input was still free when the output was handed out,
    // so priority order alone decided against it.
    for (const Candidate& rival : candidates.all()) {
      if (matching.input_matched(rival.input)) continue;
      const std::int32_t granted_input = matching.input_of(rival.output);
      if (granted_input < 0) continue;  // covered by the maximality check
      const std::int32_t granted_index = matching.candidate_of(
          static_cast<std::uint32_t>(granted_input));
      if (granted_index < 0) continue;
      const Candidate& granted =
          candidates.at(static_cast<std::size_t>(granted_index));
      if (rival.priority > granted.priority) {
        violations.push_back(
            {"priority-order", step,
             "output " + std::to_string(rival.output) + " granted to " +
                 pair_str(granted.input, granted.output) + " at priority " +
                 std::to_string(granted.priority) + " while unmatched input " +
                 std::to_string(rival.input) + " offered priority " +
                 std::to_string(rival.priority)});
      }
    }
  }
  return violations;
}

std::vector<Violation> check_rotation_fairness(SwitchArbiter& arbiter,
                                               std::uint32_t ports) {
  // Persistent full request matrix: input i requests output (i + l) % P at
  // level l, all at equal priority, so only pointer rotation breaks ties.
  CandidateSet full(ports, ports);
  for (std::uint32_t input = 0; input < ports; ++input) {
    for (std::uint32_t level = 0; level < ports; ++level) {
      Candidate c;
      c.input = static_cast<std::uint16_t>(input);
      c.output = static_cast<std::uint16_t>((input + level) % ports);
      c.level = static_cast<std::uint8_t>(level);
      c.vc = level;
      c.priority = 1;
      full.add(c);
    }
  }

  const std::uint32_t warm = 8 * ports;
  for (std::uint32_t cycle = 0; cycle < warm; ++cycle)
    (void)arbiter.arbitrate(full);

  std::vector<Violation> violations;
  std::vector<std::uint32_t> served(static_cast<std::size_t>(ports) * ports,
                                    0);
  bool window_perfect = true;
  for (std::uint32_t cycle = 0; cycle < ports; ++cycle) {
    const Matching m = arbiter.arbitrate(full);
    if (m.size() != ports) {
      violations.push_back(
          {"rotation-fairness", warm + cycle,
           "window cycle " + std::to_string(cycle) +
               ": matching size " + std::to_string(m.size()) + " of " +
               std::to_string(ports) +
               " under a full request matrix after warm-up"});
      window_perfect = false;
      continue;
    }
    for (std::uint32_t input = 0; input < ports; ++input) {
      const std::int32_t output = m.output_of(input);
      if (output >= 0)
        ++served[static_cast<std::size_t>(input) * ports +
                 static_cast<std::uint32_t>(output)];
    }
  }
  if (!window_perfect) return violations;  // pair counts would only repeat it
  for (std::uint32_t input = 0; input < ports; ++input) {
    for (std::uint32_t output = 0; output < ports; ++output) {
      const std::uint32_t count =
          served[static_cast<std::size_t>(input) * ports + output];
      if (count != 1) {
        violations.push_back(
            {"rotation-fairness", warm + ports,
             "pair " + pair_str(input, output) + " served " +
                 std::to_string(count) + " times in a window of " +
                 std::to_string(ports) + " cycles (want exactly 1)"});
      }
    }
  }
  return violations;
}

}  // namespace mmr::audit
