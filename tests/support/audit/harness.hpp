// Differential arbiter-audit harness: drives every registered arbiter over
// seeded random candidate sequences (all load profiles), checks the
// per-step invariants its traits document, shrinks any failure, and reports
// replayable specs; and diffs every runtime arbiter against its scan twin
// (support/twins.hpp).  Used by tests (property suites) and bench/audit_soak.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "mmr/audit/spec.hpp"
#include "support/audit/invariants.hpp"

namespace mmr::audit {

struct AuditOptions {
  /// Arbiters to audit; empty selects every registered arbiter.
  std::vector<std::string> arbiters;
  std::uint64_t seed_base = 1;
  std::uint32_t seeds = 200;  ///< random cases per (arbiter, profile)
  std::uint32_t ports = 4;
  std::uint32_t levels = 2;
  std::uint32_t steps = 12;  ///< arbitration steps per case
  bool shrink = true;
  /// Also run the windowed rotation-fairness check on rotation_fair
  /// arbiters (deterministic; once per arbiter).
  bool check_fairness = true;
  /// Stop collecting after this many failures (counting continues).
  std::size_t max_failures = 8;
};

struct AuditFailure {
  CaseSpec spec;        ///< shrunk when AuditOptions::shrink, else original
  Violation violation;  ///< first violation the (shrunk) spec reproduces
};

struct AuditReport {
  std::uint64_t cases = 0;          ///< random cases replayed
  std::uint64_t steps_checked = 0;  ///< arbitrations checked
  std::uint64_t failure_count = 0;  ///< failing cases (not all collected)
  std::uint64_t shrink_trials = 0;  ///< replays spent shrinking
  std::vector<AuditFailure> failures;
  [[nodiscard]] bool clean() const { return failure_count == 0; }
  /// Multi-line human summary, including dumped specs for every collected
  /// failure (replayable via parse_case + run_case).
  [[nodiscard]] std::string summary() const;
};

/// Replays one spec from a fresh arbiter and returns every violation of the
/// arbiter's documented traits, in step order.
std::vector<Violation> run_case(const CaseSpec& spec);

/// The full differential audit: arbiters x profiles x seeds, plus the
/// fairness windows.  Deterministic for fixed options.
AuditReport run_audit(const AuditOptions& options);

/// Bit-identity soak over the twin table (test_support::twins()): both
/// sides of each pair replay identical candidate sequences from identical
/// RNG seeds, and every grant must agree exactly — (input, output) pairing
/// and the granted candidate index.  A single diverging grant is an
/// implementation bug in the runtime engine (or a semantics change that
/// needs a new twin).
struct TwinDiffOptions {
  std::uint64_t seed_base = 1;
  std::uint32_t seeds = 200;  ///< random cases per (pair, port count, profile)
  std::vector<std::uint32_t> ports = {4};
  std::vector<std::uint32_t> levels = {2};  ///< level counts, each run
  std::uint32_t steps = 12;
  std::size_t max_failures = 8;
};

struct TwinDiffReport {
  std::uint64_t cases = 0;
  std::uint64_t steps_checked = 0;
  std::uint64_t failure_count = 0;
  /// Replayable descriptions of the first max_failures divergences.
  std::vector<std::string> mismatches;
  [[nodiscard]] bool clean() const { return failure_count == 0; }
  [[nodiscard]] std::string summary() const;
};

TwinDiffReport run_twin_diff(const TwinDiffOptions& options);

}  // namespace mmr::audit
