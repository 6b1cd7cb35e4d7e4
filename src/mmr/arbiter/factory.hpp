// Name-based arbiter construction so configs, benches and examples can select
// algorithms with a string.
#pragma once

#include <memory>
#include <string>
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

/// The documented correctness envelope of a registered arbiter — what the
/// differential audit harness (tests/support/audit) may assert about its
/// matchings.
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

/// Iteration budget an arbiter of `name` runs at for a given port count:
/// bit_width(P) + 1 for "islip" and "pim" (4 at P = 4, 5 at P = 8 to 15),
/// 1 for "islip1", "pim1" and "rr", 0 for non-iterative arbiters.  It is
/// the floor used with ArbiterTraits::iteration_bounded and the count
/// estimate_arbiter costs.  Throws on unknown names like make_arbiter.
std::uint32_t arbiter_iterations(const std::string& name, std::uint32_t ports);

}  // namespace mmr
