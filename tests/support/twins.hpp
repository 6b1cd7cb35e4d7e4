// The twin table: each runtime arbiter that has a scan-formulation
// reference, paired with a builder for that reference.  Both sides of a
// pair, built from the same ports and Rng, must grant bit-identically on
// every candidate sequence (audit::run_twin_diff, test_bitset_twins).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mmr/arbiter/matching.hpp"
#include "mmr/sim/rng.hpp"

namespace mmr::test_support {

struct Twin {
  const char* arbiter;    ///< runtime name, built with make_arbiter
  const char* reference;  ///< the reference's label in reports
  /// Builds the reference for `arbiter` at `ports`, with the arbiter's own
  /// iteration budget where it has one.
  std::unique_ptr<SwitchArbiter> (*build)(std::uint32_t ports, Rng rng);
};

/// coa, wfa, wfa-fixed, islip, pim and rr, in that order.
const std::vector<Twin>& twins();

}  // namespace mmr::test_support
