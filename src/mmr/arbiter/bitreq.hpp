// Word-parallel bitmap request matrices: the shared candidate-set view the
// bitset arbitration engines (WFA, iSLIP, PIM) grant from.  Each output owns
// a row of `uint64_t` words whose set bits are the inputs requesting it (and
// symmetrically per input), so candidate scans become popcount/ctz loops
// over a handful of words instead of walks over Candidate objects — the
// request matrix of the MWM/iSLIP linear-algebraic formulation, stored one
// machine word at a time.  Ports beyond 64 simply use more words per row;
// the representable maximum is kMaxPorts (mmr/sim/config.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/arbiter/candidate.hpp"
#include "mmr/sim/bits.hpp"
#include "mmr/sim/config.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

/// The level-collapsed request matrix of one CandidateSet: per (input,
/// output) pair the lowest-level candidate (the VC the link scheduler ranked
/// highest — the one the hardware would transmit), as both bit-rows and a
/// dense candidate-index lookup.  Rebuilding reuses the previous cycle's
/// rows to clear only the cells that were actually occupied, so steady-state
/// cost tracks the number of requests, not ports^2.
class BitRequestMatrix {
 public:
  /// Rebuilds from `candidates`; allocation-free once sized for its ports.
  void build(const CandidateSet& candidates);

  [[nodiscard]] std::uint32_t ports() const { return ports_; }
  [[nodiscard]] std::uint32_t words() const { return words_; }

  /// Bit-row of inputs requesting `output` / outputs requested by `input`.
  [[nodiscard]] const std::uint64_t* inputs_of(std::uint32_t output) const {
    return out_rows_.data() + static_cast<std::size_t>(output) * words_;
  }
  [[nodiscard]] const std::uint64_t* outputs_of(std::uint32_t input) const {
    return in_rows_.data() + static_cast<std::size_t>(input) * words_;
  }

  /// Inputs / outputs with at least one request (word mask).
  [[nodiscard]] const std::uint64_t* live_inputs() const {
    return in_live_.data();
  }
  [[nodiscard]] const std::uint64_t* live_outputs() const {
    return out_live_.data();
  }

  /// Candidate index transmitted when (input, output) is granted; -1 when
  /// the pair holds no request.
  [[nodiscard]] std::int32_t cell(std::uint32_t input,
                                  std::uint32_t output) const {
    return cell_[static_cast<std::size_t>(input) * ports_ + output];
  }

  /// Checkpoint walk.  The whole matrix persists across cycles: build()
  /// sparse-clears using the *previous* rows' set bits, so resetting any of
  /// this to zero on restore would change the next build's work (and the
  /// state hash).  Serialize verbatim.
  void snap(snapshot::Walker& w);

 private:
  std::uint32_t ports_ = 0;
  std::uint32_t words_ = 0;
  std::vector<std::uint64_t> in_rows_;   ///< per input: requested outputs
  std::vector<std::uint64_t> out_rows_;  ///< per output: requesting inputs
  std::vector<std::uint64_t> in_live_;
  std::vector<std::uint64_t> out_live_;
  std::vector<std::int32_t> cell_;  ///< (input, output) -> candidate index
};

}  // namespace mmr
