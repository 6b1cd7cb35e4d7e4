// iSLIP (McKeown) — iterative round-robin matching with rotating grant and
// accept pointers; a classic input-queued switch scheduler included as a
// baseline.  Priorities are ignored (like WFA); the candidate set is treated
// as a VOQ request matrix.
//
// The default engine grants from word-parallel bitset request rows
// (BitRequestMatrix): each output's grant stage is a cyclic first-set-bit
// search from its grant pointer over `inputs_of(out) & free_inputs`, one AND
// and a ctz per word instead of a cell-by-cell walk.  It grants
// bit-identically to the original dense-array engine (IslipScanArbiter in
// tests/support).
#pragma once

#include "mmr/arbiter/bitreq.hpp"
#include "mmr/arbiter/candidate.hpp"
#include "mmr/arbiter/matching.hpp"

namespace mmr {

class IslipArbiter final : public SwitchArbiter {
 public:
  /// Runs at most `iterations` grant/accept rounds per arbitration; the
  /// factory passes arbiter_iterations(name, ports).
  IslipArbiter(std::uint32_t ports, std::uint32_t iterations);

  /// "islip" at the factory's budget, "islip1" single-iteration.
  [[nodiscard]] const char* name() const override {
    return iterations_ == 1 ? "islip1" : "islip";
  }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

  [[nodiscard]] std::uint32_t iterations() const { return iterations_; }

  /// Rotating pointers (exposed for tests and the audit harness; standard
  /// iSLIP only moves them on first-iteration accepts).
  [[nodiscard]] std::uint32_t grant_pointer(std::uint32_t output) const {
    return grant_ptr_[output];
  }
  [[nodiscard]] std::uint32_t accept_pointer(std::uint32_t input) const {
    return accept_ptr_[input];
  }

 private:
  std::uint32_t ports_;
  std::uint32_t words_;
  std::uint32_t iterations_;
  std::vector<std::uint32_t> grant_ptr_;   ///< per output
  std::vector<std::uint32_t> accept_ptr_;  ///< per input
  BitRequestMatrix requests_;
  std::vector<std::uint64_t> free_in_;   ///< unmatched inputs with requests
  std::vector<std::uint64_t> free_out_;  ///< unmatched outputs with requests
  std::vector<std::uint64_t> granted_;   ///< inputs granted this iteration
  std::vector<std::uint64_t> scratch_;   ///< per-output grant-row workspace
  std::vector<std::int32_t> grant_of_input_;
};

}  // namespace mmr
