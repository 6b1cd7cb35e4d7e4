#include "mmr/arbiter/candidate.hpp"

namespace mmr {

CandidateSet::CandidateSet(std::uint32_t ports, std::uint32_t levels)
    : ports_(ports), levels_(levels) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(levels_ > 0);
  slot_index_.assign(static_cast<std::size_t>(ports_) * levels_, -1);
}

void CandidateSet::clear() {
  // Only the slots the last cycle filled hold an index.
  for (const Candidate& c : flat_) slot_index_[slot(c.input, c.level)] = -1;
  flat_.clear();
}

std::uint32_t CandidateSet::levels_used(std::uint32_t input) const {
  std::uint32_t used = 0;
  while (used < levels_ && index_of(input, used) != -1) ++used;
  return used;
}

void CandidateSet::check_invariants() const {
  for (std::uint32_t input = 0; input < ports_; ++input) {
    bool gap = false;
    Priority prev = ~Priority{0};
    for (std::uint32_t level = 0; level < levels_; ++level) {
      const std::int32_t idx = index_of(input, level);
      if (idx == -1) {
        gap = true;
        continue;
      }
      MMR_ASSERT_MSG(!gap, "candidate level gap");
      const Candidate& c = at(static_cast<std::size_t>(idx));
      MMR_ASSERT(c.input == input);
      MMR_ASSERT(c.level == level);
      MMR_ASSERT(c.output < ports_);
      MMR_ASSERT_MSG(c.priority <= prev,
                     "candidate priorities must not increase with level");
      prev = c.priority;
    }
  }
}

}  // namespace mmr
