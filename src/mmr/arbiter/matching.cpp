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

void Matching::match(std::uint32_t input, std::uint32_t output,
                     std::int32_t candidate_index) {
  MMR_ASSERT(input < ports());
  MMR_ASSERT(output < ports());
  MMR_ASSERT_MSG(output_of_input_[input] == -1, "input matched twice");
  MMR_ASSERT_MSG(input_of_output_[output] == -1, "output matched twice");
  output_of_input_[input] = static_cast<std::int32_t>(output);
  input_of_output_[output] = static_cast<std::int32_t>(input);
  candidate_of_input_[input] = candidate_index;
  ++size_;
}

}  // namespace mmr
