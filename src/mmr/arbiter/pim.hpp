// Parallel Iterative Matching (Anderson et al., 1993): outputs grant a
// uniformly random requesting input, inputs accept a uniformly random grant,
// repeated for a fixed number of iterations.  QoS-blind baseline.
//
// The default engine walks word-parallel bitset request rows
// (BitRequestMatrix); reservoir draws are consumed in the exact ascending
// (output, input) order of the original cell-by-cell scan, so the RNG stream
// — and therefore every matching — is bit-identical to the dense-array
// engine (PimScanArbiter in tests/support).
#pragma once

#include "mmr/arbiter/bitreq.hpp"
#include "mmr/arbiter/candidate.hpp"
#include "mmr/arbiter/matching.hpp"
#include "mmr/sim/rng.hpp"

namespace mmr {

class PimArbiter final : public SwitchArbiter {
 public:
  /// Runs at most `iterations` grant/accept rounds per arbitration (PIM
  /// converges in O(log P) expected); the factory passes
  /// arbiter_iterations(name, ports).
  PimArbiter(std::uint32_t ports, Rng rng, std::uint32_t iterations);

  /// "pim" at the factory's budget, "pim1" single-iteration.
  [[nodiscard]] const char* name() const override {
    return iterations_ == 1 ? "pim1" : "pim";
  }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

  [[nodiscard]] std::uint32_t iterations() const { return iterations_; }

 private:
  std::uint32_t ports_;
  std::uint32_t words_;
  Rng rng_;
  std::uint32_t iterations_;
  BitRequestMatrix requests_;
  std::vector<std::uint64_t> free_in_;
  std::vector<std::uint64_t> free_out_;
  std::vector<std::uint64_t> granted_;  ///< inputs granted this iteration
  std::vector<std::uint64_t> scratch_;
  std::vector<std::int32_t> grant_of_input_;
  std::vector<std::uint32_t> grants_seen_;
};

}  // namespace mmr
