#include "mmr/arbiter/matching.hpp"

#include "mmr/arbiter/candidate.hpp"
#include "mmr/perf/probe.hpp"
#include "mmr/sim/assert.hpp"

namespace mmr {

Matching::Matching(std::uint32_t ports) { reset(ports); }

void Matching::reset(std::uint32_t ports) {
  MMR_ASSERT(ports > 0);
  if (ports > output_of_input_.capacity())
    MMR_PERF_COUNT(perf::Counter::kMatchingAlloc, 1);
  output_of_input_.assign(ports, -1);
  input_of_output_.assign(ports, -1);
  candidate_of_input_.assign(ports, -1);
  size_ = 0;
}

Matching SwitchArbiter::arbitrate(const CandidateSet& candidates) {
  Matching out(candidates.ports());
  arbitrate_into(candidates, out);
  return out;
}

}  // namespace mmr
