// Single-iteration round-robin/round-robin arbitration ("rr"): every output
// grants the first requesting input at or after its rotating pointer, every
// input accepts the grant closest after its own pointer, and both pointers
// step past the position they just considered — unconditionally, accepted or
// not.  This is the RR/RR scheduler of Gunther's CICQ analysis (PAPERS.md)
// expressed as a crossbar matching arbiter: without iSLIP's accepted-only
// pointer update the pointers never desynchronise, which is exactly the
// throughput pathology the CICQ crosspoint buffers (qd=cicq) paper over.
// Registered in the factory so the differential audit harness and the
// simulation oracle cover it like every other arbiter; it grants
// bit-identically to an O(P^2) pointer scan (RoundRobinScanArbiter in
// tests/support).
#pragma once

#include <vector>

#include "mmr/arbiter/bitreq.hpp"
#include "mmr/arbiter/matching.hpp"

namespace mmr {

/// Word-parallel engine (BitRequestMatrix rows, cyclic first-set-bit scans).
class RoundRobinArbiter final : public SwitchArbiter {
 public:
  explicit RoundRobinArbiter(std::uint32_t ports);

  [[nodiscard]] const char* name() const override { return "rr"; }
  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;
  void snap(snapshot::Walker& w) override;

 private:
  std::uint32_t ports_;
  std::uint32_t words_;
  std::vector<std::uint32_t> grant_ptr_;   ///< per output: next input
  std::vector<std::uint32_t> accept_ptr_;  ///< per input: next output
  BitRequestMatrix requests_;
  std::vector<std::int32_t> grant_of_input_;  ///< scratch
};

}  // namespace mmr
