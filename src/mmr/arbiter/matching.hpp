// Conflict-free input/output matching: the result of one switch arbitration.
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/sim/assert.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class CandidateSet;

class Matching {
 public:
  explicit Matching(std::uint32_t ports);

  /// Clears the matching and resizes it to `ports`.  Reuses the existing
  /// buffers: no allocation happens unless `ports` grew, so arbiters can
  /// recycle one Matching across cycles allocation-free.
  void reset(std::uint32_t ports);

  /// Records that `input` was matched to `output`, transmitting the
  /// candidate at `candidate_index` within the arbitrated CandidateSet.
  void match(std::uint32_t input, std::uint32_t output,
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

  [[nodiscard]] std::uint32_t ports() const {
    return static_cast<std::uint32_t>(output_of_input_.size());
  }
  [[nodiscard]] std::uint32_t size() const { return size_; }
  [[nodiscard]] bool input_matched(std::uint32_t input) const {
    return output_of(input) != -1;
  }
  [[nodiscard]] bool output_matched(std::uint32_t output) const {
    return input_of(output) != -1;
  }
  /// -1 when unmatched.
  [[nodiscard]] std::int32_t output_of(std::uint32_t input) const {
    MMR_ASSERT(input < ports());
    return output_of_input_[input];
  }
  [[nodiscard]] std::int32_t input_of(std::uint32_t output) const {
    MMR_ASSERT(output < ports());
    return input_of_output_[output];
  }
  [[nodiscard]] std::int32_t candidate_of(std::uint32_t input) const {
    MMR_ASSERT(input < ports());
    return candidate_of_input_[input];
  }

 private:
  std::vector<std::int32_t> output_of_input_;
  std::vector<std::int32_t> input_of_output_;
  std::vector<std::int32_t> candidate_of_input_;
  std::uint32_t size_ = 0;
};

/// Interface every switch scheduling algorithm implements.  Arbiters may be
/// stateful (rotating pointers); state must only depend on prior calls so
/// runs stay deterministic.
class SwitchArbiter {
 public:
  virtual ~SwitchArbiter() = default;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Computes a conflict-free matching for one scheduling cycle into `out`
  /// (reset by the callee).  This is the hot-path entry point: callers that
  /// recycle `out` across cycles arbitrate allocation-free.
  virtual void arbitrate_into(const CandidateSet& candidates,
                              Matching& out) = 0;

  /// Convenience wrapper building a fresh Matching (tests, audit tooling).
  [[nodiscard]] Matching arbitrate(const CandidateSet& candidates);

  /// Checkpoint walk of the arbiter's internal state (rotation pointers,
  /// RNG lanes, cached request matrices).  The default no-op is correct
  /// only for genuinely stateless arbiters (maximal matching recomputed
  /// from scratch each cycle); every stateful arbiter must override.
  virtual void snap(snapshot::Walker& w) { (void)w; }
};

}  // namespace mmr
