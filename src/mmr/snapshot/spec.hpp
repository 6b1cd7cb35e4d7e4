// Textual snapshot configuration (`snap=`, grammar in README "Spec
// reference"), e.g. `snap=every:50000,prefix:ckpt,hash_every:1000`:
// periodic checkpoints, a per-cycle StateHash record, post-mortem bundles
// on MMR_ASSERT / watchdog alarm / SIGINT / SIGTERM (`crash:1`), and
// `resume:PATH`.  `snap=` unset constructs no snapshot machinery at all.
#pragma once

#include <cstdint>
#include <string>

#include "mmr/sim/spec_parser.hpp"

namespace mmr {
struct SimConfig;
}

namespace mmr::snapshot {

struct SnapSpec : spec::Parsed<SnapSpec> {
  std::uint64_t every = 0;       ///< checkpoint period, cycles (0 = off)
  std::uint64_t hash_every = 0;  ///< StateHash period, cycles (0 = off)
  std::string prefix = "mmr-snap";
  std::string hash_out;  ///< "" = keep the sequence in memory only
  std::string resume;    ///< "" = fresh start
  bool on_crash = true;

  static const spec::Grammar& grammar();
  bool operator==(const SnapSpec&) const = default;

  /// Throws std::invalid_argument when a field combination is nonsense.
  void validate() const;
};

/// FNV-1a fingerprint over every SimConfig field that shapes results
/// (snap_spec and net_threads excluded).  Restore rebuilds immutable state
/// from the same (config, workload), so it refuses a differing digest.
[[nodiscard]] std::uint64_t config_digest(const SimConfig& config);

}  // namespace mmr::snapshot
