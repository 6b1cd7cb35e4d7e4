// Name-based arbiter construction so configs, benches and examples can select
// algorithms with a string.
#pragma once

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "mmr/arbiter/matching.hpp"
#include "mmr/sim/rng.hpp"

namespace mmr {

/// Builds the arbiter registered as `name` (see arbiter_names()).  Throws
/// std::invalid_argument on unknown names (listing the valid ones).
std::unique_ptr<SwitchArbiter> make_arbiter(const std::string& name,
                                            std::uint32_t ports, Rng rng);

/// All registered arbiter names (for sweeps and help text).
const std::vector<std::string>& arbiter_names();

/// (optimised, reference) name pairs that must produce bit-identical
/// matchings from identical inputs and RNG seeds: the word-parallel bitset /
/// SoA engines and the straightforward scan formulations they replaced.  The
/// differential audit (mmr/audit, bench/audit_soak --twins) replays both
/// sides of every pair and aborts on the first diverging grant.
const std::vector<std::pair<std::string, std::string>>& arbiter_twin_pairs();

/// The documented correctness envelope of a registered arbiter — what the
/// differential audit harness (mmr/audit) may assert about its matchings.
/// Claims here are guarantees of the algorithm, not empirical observations;
/// an audit violation therefore always means an implementation bug.
struct ArbiterTraits {
  /// Leaves no request with both endpoints unmatched (maximal matching).
  bool maximal = false;
  /// Matching size always equals the Hopcroft-Karp maximum.
  bool exact_maximum = false;
  /// A candidate is never granted an output while a strictly
  /// higher-priority candidate for the same output goes entirely unmatched
  /// (the priority-ordering property of COA and greedy arbitration).
  bool priority_ordered = false;
  /// Iterative schemes with a fixed iteration budget: every arbitration is
  /// either maximal (converged early) or holds at least
  /// arbiter_iterations(name, ports) matches (each iteration adds one).
  bool iteration_bounded = false;
  /// Pointer/diagonal rotation desynchronises under a persistent full
  /// request matrix: after warm-up, every window of P consecutive cycles
  /// serves each (input, output) pair exactly once at 100% throughput.
  bool rotation_fair = false;
};

/// Traits of a registered arbiter; throws on unknown names like
/// make_arbiter.
const ArbiterTraits& arbiter_traits(const std::string& name);

/// Iteration budget an arbiter of `name` runs at for a given port count
/// (the floor used with ArbiterTraits::iteration_bounded); 0 for
/// non-iterative arbiters.  Throws on unknown names like make_arbiter.
std::uint32_t arbiter_iterations(const std::string& name, std::uint32_t ports);

}  // namespace mmr
