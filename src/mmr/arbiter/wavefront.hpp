// Wave Front Arbiters (Tamir & Chi, 1993) — the conventional, QoS-blind
// symmetric crossbar arbiters the paper compares against.
//
// An arbitration wave sweeps the P x P request array along anti-diagonals; a
// crosspoint grants iff it holds a request and neither its row (input) nor
// its column (output) has granted yet.  Cells of one anti-diagonal touch
// distinct rows and columns, so each wave is conflict-free by construction.
// Connection priorities are ignored — that is precisely the property the
// paper investigates.
//
// Corner placement is a fairness decision, not a detail.  With the corner
// fixed at row 0, a contested output is served in strict input-index order:
// under a sustained hotspot the highest-index requester waits until every
// lower-index one stops requesting, which bench/incast_survival showed can
// be the whole run (a paused high-index port starved for >100k cycles while
// COA bounded every pause at <= 250).  The default "wfa" therefore rotates
// the corner one row per arbitration — input (offset) is swept first, so
// every input's wait at a contested output is bounded by P arbitrations —
// and grants from word-parallel bitset request rows (BitRequestMatrix).
//
// Variants:
//  * WaveFrontArbiter ("wfa") — bitset engine, rotating corner row.
//  * WaveFrontArbiter with rotate=false ("wfa-fixed") — the same engine with
//    the corner held at row 0: the paper's fixed top-left corner, exactly as
//    "wfa" behaved before the rotation fix; registered so the starvation bug
//    stays measurable (and the paper's corner-bias results reproducible).
//  * WrappedWaveFrontArbiter ("wwfa") — Tamir & Chi's wrapped variant: P
//    full diagonals, with the starting diagonal rotating every arbitration.
// Both corner policies grant bit-identically to a cell-by-cell scan of the
// dense request array (WaveFrontScanArbiter in tests/support).
#pragma once

#include "mmr/arbiter/bitreq.hpp"
#include "mmr/arbiter/candidate.hpp"
#include "mmr/arbiter/matching.hpp"

namespace mmr {

namespace detail {

/// Collapses candidates to a (input, output) -> candidate-index request
/// array, keeping the lowest-level candidate per pair.
void collapse_requests(const CandidateSet& candidates, std::uint32_t ports,
                       std::vector<std::int32_t>& request);

}  // namespace detail

/// WFA on word-parallel bitset request rows.  rotate=true ("wfa") moves
/// the corner one row per arbitration (the starvation fix); rotate=false
/// ("wfa-fixed") holds it at row 0.
class WaveFrontArbiter final : public SwitchArbiter {
 public:
  explicit WaveFrontArbiter(std::uint32_t ports, bool rotate = true);

  [[nodiscard]] const char* name() const override {
    return rotate_ ? "wfa" : "wfa-fixed";
  }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

  /// The row the next arbitration's wave starts from (exposed for tests).
  [[nodiscard]] std::uint32_t next_corner_row() const { return offset_; }

 private:
  std::uint32_t ports_;
  std::uint32_t words_;
  bool rotate_;
  std::uint32_t offset_ = 0;
  BitRequestMatrix requests_;
  std::vector<std::uint64_t> free_rows_;  ///< rotated-row indices still free
  std::vector<std::uint64_t> free_cols_;
};

/// Wrapped WFA with rotating starting diagonal (positionally fair).
class WrappedWaveFrontArbiter final : public SwitchArbiter {
 public:
  explicit WrappedWaveFrontArbiter(std::uint32_t ports);

  [[nodiscard]] const char* name() const override { return "wwfa"; }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

  /// The diagonal the next arbitration will start from (exposed for tests).
  [[nodiscard]] std::uint32_t next_start_diagonal() const { return start_; }

 private:
  std::uint32_t ports_;
  std::uint32_t start_ = 0;
  std::vector<std::int32_t> request_;
};

}  // namespace mmr
