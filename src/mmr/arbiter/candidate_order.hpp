// The Candidate-Order Arbiter (COA) — the paper's proposal (Section 4).
//
// 1. Arrange all candidates into a selection matrix of L*P rows x P columns
//    (rows grouped by level, one row per input within a level); compute the
//    conflict vector: per (level, output), the number of pending requests.
// 2. Port ordering: select output ports first by level, then by increasing
//    conflict within that level (ports with many conflicts are matched last
//    since they have the most opportunities); ties broken randomly.
// 3. Arbitration: among the pending requests for the selected output, grant
//    the one with the highest connection priority.
// Each grant removes all requests of the matched input and output; the
// conflict vector is recomputed and the process repeats until no requests
// remain, yielding a conflict-free matching.
//
// CandidateOrderArbiter ("coa") runs the port ordering on cached keys.
// Each active output (free, with a live request) keeps one packed key,
// (lowest pending level << 32 | conflict count at that level), so "lower
// level first, then fewer conflicts" is one integer compare.  A port
// ordering is one sweep over the active outputs that records every output
// whose key is at or below the running minimum; replaying the reservoir over
// those events alone makes exactly the tie draws of a full scan.  A grant
// clears its input's free bit, deactivates its output and re-keys only the
// outputs its input requested (at most L); requests of a granted output are
// never retired, since an inactive output is never visited again, and the
// winner walk skips requests whose input is matched.  Conflict counts, level
// masks and list heads are left zeroed between calls, so setup and teardown
// touch only the candidates received.  Levels are bounded by 64
// (SimConfig::validate).
//
// It grants bit-identically to the reference formulation, which rescans the
// full candidate list per grant and removal (CandidateOrderScanArbiter in
// tests/support; test_coa's CoaOracle compares every grant and the RNG state
// after every call).
#pragma once

#include "mmr/arbiter/candidate.hpp"
#include "mmr/arbiter/matching.hpp"
#include "mmr/sim/rng.hpp"

namespace mmr {

class CandidateOrderArbiter final : public SwitchArbiter {
 public:
  /// `use_priority == false` gives the "coa-np" ablation: the same
  /// level/conflict port ordering, but contention within an output is
  /// resolved randomly instead of by connection priority — isolating how
  /// much of COA's QoS advantage comes from each of its two decisions.
  CandidateOrderArbiter(std::uint32_t ports, Rng rng,
                        bool use_priority = true);

  [[nodiscard]] const char* name() const override {
    return use_priority_ ? "coa" : "coa-np";
  }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

 private:
  std::uint32_t ports_;
  Rng rng_;
  bool use_priority_;

  // Scratch reused across calls; every count, mask and list head is zero
  // (lists: -1) between calls, so the steady state neither allocates nor
  // clears.
  std::vector<std::uint64_t> active_;      ///< outputs with a live request
  std::vector<std::uint64_t> free_in_;     ///< inputs not yet matched
  std::vector<std::uint64_t> level_mask_;  ///< per output: levels pending
  std::vector<std::uint64_t> key_;         ///< per active output: its key
  std::vector<std::uint32_t> conflict_;    ///< (output, level) -> pending
  std::vector<std::int32_t> out_head_;     ///< per output: first candidate
  std::vector<std::int32_t> out_next_;     ///< per candidate: next, same output
  std::vector<std::uint32_t> events_;      ///< one sweep's resets and ties
};

}  // namespace mmr
