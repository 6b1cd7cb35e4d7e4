// Scan-formulation reference arbiters for the differential tests.  Each one
// is the straightforward cell-by-cell (or full-candidate-list) version of a
// runtime arbiter, kept only so tests can prove the word-parallel engines in
// src/mmr/arbiter grant bit-identically: the same (input, output) pairs, the
// same candidate indices, and the same RNG draws in the same order.  None of
// them is registered with make_arbiter; twins.hpp pairs each with the
// runtime arbiter it checks.
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/arbiter/candidate.hpp"
#include "mmr/arbiter/matching.hpp"
#include "mmr/sim/rng.hpp"

namespace mmr {

/// Reference COA: the same algorithm and RNG stream as
/// CandidateOrderArbiter, but every port ordering rescans every output's
/// levels, and every grant and removal scans the full candidate list.
class CandidateOrderScanArbiter final : public SwitchArbiter {
 public:
  CandidateOrderScanArbiter(std::uint32_t ports, Rng rng,
                            bool use_priority = true);

  [[nodiscard]] const char* name() const override {
    return use_priority_ ? "coa-scan" : "coa-np-scan";
  }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  /// Walks the RNG state only, as CandidateOrderArbiter::snap does, so the
  /// two walks hash alike exactly when the two RNG streams agree.
  void snap(snapshot::Walker& w) override;

 private:
  std::uint32_t ports_;
  Rng rng_;
  bool use_priority_;

  std::vector<std::uint32_t> conflict_;
  std::vector<std::uint8_t> input_free_;
  std::vector<std::uint8_t> output_free_;
  std::vector<std::uint8_t> request_live_;
};

/// Reference wavefront: a dense request array swept cell by cell.
/// rotate=true moves the corner one row per arbitration (the twin of "wfa");
/// rotate=false holds it at row 0 (the twin of "wfa-fixed").
class WaveFrontScanArbiter final : public SwitchArbiter {
 public:
  WaveFrontScanArbiter(std::uint32_t ports, bool rotate);

  [[nodiscard]] const char* name() const override {
    return rotate_ ? "wfa-scan" : "wfa-fixed-scan";
  }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

  [[nodiscard]] std::uint32_t next_corner_row() const { return offset_; }

 private:
  std::uint32_t ports_;
  bool rotate_;
  std::uint32_t offset_ = 0;
  std::vector<std::int32_t> request_;  ///< (input, output) -> candidate index
};

/// Reference iSLIP: per-output cyclic scans over a dense request array.
class IslipScanArbiter final : public SwitchArbiter {
 public:
  IslipScanArbiter(std::uint32_t ports, std::uint32_t iterations);

  [[nodiscard]] const char* name() const override { return "islip-scan"; }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

 private:
  std::uint32_t ports_;
  std::uint32_t iterations_;
  std::vector<std::uint32_t> grant_ptr_;
  std::vector<std::uint32_t> accept_ptr_;
  std::vector<std::int32_t> request_;
};

/// Reference PIM: reservoir draws in ascending (output, input) cell order.
class PimScanArbiter final : public SwitchArbiter {
 public:
  PimScanArbiter(std::uint32_t ports, Rng rng, std::uint32_t iterations);

  [[nodiscard]] const char* name() const override { return "pim-scan"; }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

 private:
  std::uint32_t ports_;
  Rng rng_;
  std::uint32_t iterations_;
  std::vector<std::int32_t> request_;
};

/// Reference single-round round-robin ("rr"): O(P^2) pointer scans.
class RoundRobinScanArbiter final : public SwitchArbiter {
 public:
  explicit RoundRobinScanArbiter(std::uint32_t ports);

  [[nodiscard]] const char* name() const override { return "rr-scan"; }

  void arbitrate_into(const CandidateSet& candidates,
                      Matching& matching) override;

  void snap(snapshot::Walker& w) override;

 private:
  std::uint32_t ports_;
  std::vector<std::uint32_t> grant_ptr_;
  std::vector<std::uint32_t> accept_ptr_;
  std::vector<std::int32_t> request_;
};

}  // namespace mmr
