// Candidate sets: the interface between link scheduling and switch
// scheduling.  Every input port contributes up to L candidates (its L
// highest-priority virtual channels); level 0 is the highest-priority
// candidate of that port (the paper's "level one").
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/perf/probe.hpp"
#include "mmr/sim/assert.hpp"

namespace mmr {

/// Priority values are unsigned and saturating; larger means more urgent.
using Priority = std::uint64_t;

struct Candidate {
  std::uint16_t input = 0;   ///< input port
  std::uint16_t output = 0;  ///< requested output port
  std::uint8_t level = 0;    ///< candidate level at its input (0 = highest)
  std::uint32_t vc = 0;      ///< virtual channel within the input link
  Priority priority = 0;     ///< biased priority of the head flit
};

/// The selection-matrix contents for one arbitration: at most one candidate
/// per (input, level).  Candidates must be added level-consistently: for a
/// given input, level l may only be present when levels 0..l-1 are.
class CandidateSet {
 public:
  CandidateSet(std::uint32_t ports, std::uint32_t levels);

  void clear();
  /// Inline: link scheduling adds every candidate of every cycle.
  void add(const Candidate& candidate) {
    MMR_ASSERT(candidate.input < ports_);
    MMR_ASSERT(candidate.output < ports_);
    MMR_ASSERT(candidate.level < levels_);
    const std::size_t s = slot(candidate.input, candidate.level);
    MMR_ASSERT_MSG(slot_index_[s] == -1, "duplicate (input, level) candidate");
    MMR_ASSERT_MSG(candidate.level == 0 || slot_index_[s - 1] != -1,
                   "candidate levels must be contiguous from 0");
    slot_index_[s] = static_cast<std::int32_t>(flat_.size());
    if (flat_.size() == flat_.capacity())
      MMR_PERF_COUNT(perf::Counter::kCandidateRealloc, 1);
    flat_.push_back(candidate);
  }

  [[nodiscard]] std::uint32_t ports() const { return ports_; }
  [[nodiscard]] std::uint32_t levels() const { return levels_; }
  [[nodiscard]] const std::vector<Candidate>& all() const { return flat_; }
  [[nodiscard]] bool empty() const { return flat_.empty(); }
  [[nodiscard]] std::size_t size() const { return flat_.size(); }

  /// Index into all() of the candidate at (input, level), or -1 if absent.
  [[nodiscard]] std::int32_t index_of(std::uint32_t input,
                                      std::uint32_t level) const {
    MMR_ASSERT(input < ports_);
    MMR_ASSERT(level < levels_);
    return slot_index_[slot(input, level)];
  }

  [[nodiscard]] const Candidate& at(std::size_t index) const {
    MMR_ASSERT(index < flat_.size());
    return flat_[index];
  }

  /// Number of candidates contributed by one input port.
  [[nodiscard]] std::uint32_t levels_used(std::uint32_t input) const;

  /// Invariant check used by tests and debug paths: level consistency,
  /// in-range ports, strictly non-increasing priorities per input.
  void check_invariants() const;

 private:
  [[nodiscard]] std::size_t slot(std::uint32_t input,
                                 std::uint32_t level) const {
    return static_cast<std::size_t>(input) * levels_ + level;
  }

  std::uint32_t ports_;
  std::uint32_t levels_;
  std::vector<Candidate> flat_;
  std::vector<std::int32_t> slot_index_;  ///< (input, level) -> flat index
};

}  // namespace mmr
