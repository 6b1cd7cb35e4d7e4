// Seeded random CandidateSet generator for the differential audit harness
// (tests/support/audit) and the arbitration micro-benchmarks.
// Each profile stresses a different arbiter code path: uniform request
// matrices, load skewed onto a few inputs, hotspot outputs everyone fights
// over, and duplicate (input -> output) requests at different levels (the
// shape COA's level loop and iSLIP's VOQ collapse must both handle).
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/arbiter/candidate.hpp"
#include "mmr/audit/spec.hpp"
#include "mmr/sim/rng.hpp"

namespace mmr::audit {

enum class LoadProfile : std::uint8_t {
  kUniform,    ///< each (input, level) slot filled i.i.d., uniform output
  kSkewed,     ///< a few hot inputs request much more than the rest
  kHotspot,    ///< most requests converge on one or two outputs
  kDuplicate,  ///< inputs repeat the same output across several levels
};

/// All profiles, for sweeps.
const std::vector<LoadProfile>& all_profiles();

/// Short stable name ("uniform", ...), for labels and dumped specs.
const char* profile_name(LoadProfile profile);

struct GeneratorOptions {
  std::uint32_t ports = 4;
  std::uint32_t levels = 2;
  /// Probability that a given (input, level) slot holds a candidate (before
  /// profile-specific skew is applied).
  double fill = 0.6;
  LoadProfile profile = LoadProfile::kUniform;
};

/// One random candidate list (legal for CaseSpec::set_for_step after
/// CaseSpec::normalize(); levels are contiguous and priorities non-increasing
/// per input by construction).
std::vector<Candidate> generate_step(Rng& rng, const GeneratorOptions& opt);

/// A full replayable case: `steps` candidate lists from `generate_step`,
/// normalized, with the arbiter name and seed recorded for replay.
CaseSpec generate_case(const std::string& arbiter, std::uint64_t seed,
                       std::uint32_t steps, const GeneratorOptions& opt);

}  // namespace mmr::audit
