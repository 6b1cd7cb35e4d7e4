// SnapshotManager: the run-loop side of the snapshot subsystem.  Owns the
// SnapSpec policy and performs the periodic duties — StateHash recording,
// periodic checkpoints, post-mortem bundles on watchdog alarms — plus the
// run-end hash log.  The simulation supplies one walk callback; the manager
// never sees simulation types.
//
// CrashScope arms the MMR_ASSERT hook for the duration of a run: when an
// invariant dies, the registered action writes a post-mortem checkpoint
// before the previously installed hook (the trace layer's flight-recorder
// dump) runs — one crash, one bundle of snapshot + flight dump.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mmr/snapshot/spec.hpp"

namespace mmr::snapshot {

class Walker;

class SnapshotManager {
 public:
  using WalkFn = std::function<void(Walker&)>;

  SnapshotManager(SnapSpec spec, std::uint64_t config_digest);

  [[nodiscard]] const SnapSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint64_t config_digest() const { return config_digest_; }

  /// One StateHash of the current state (also usable ad hoc from tests).
  [[nodiscard]] std::uint64_t hash_state(const WalkFn& walk) const;

  /// Periodic duties after a completed cycle; `cycle` = cycles done so far.
  /// Checkpoint I/O failures are logged, not thrown — a full disk must not
  /// kill a soak that can still finish in memory.
  void after_cycle(std::uint64_t cycle, const WalkFn& walk);

  /// Writes `<prefix>[-<tag>]-<cycle>.snap`; returns the path ("" on I/O
  /// failure when `nothrow`).
  std::string write_checkpoint(std::uint64_t cycle, const WalkFn& walk,
                               const std::string& tag = "",
                               bool nothrow = false);

  /// Post-mortem entry point for watchdog alarms: writes one bundle per
  /// alarm-count increase (capped), tagged with `trigger`.
  void on_alarm_count(std::uint64_t cycle, const WalkFn& walk,
                      std::uint64_t alarms, const std::string& trigger);

  /// Recorded (cycle, hash) sequence so far.
  [[nodiscard]] const std::vector<std::pair<std::uint64_t, std::uint64_t>>&
  hash_sequence() const {
    return hashes_;
  }

  /// Writes spec().hash_out as JSONL (atomic); no-op when unset.
  void write_hash_log() const;

  [[nodiscard]] const std::vector<std::string>& checkpoints_written() const {
    return checkpoint_paths_;
  }

 private:
  SnapSpec spec_;
  std::uint64_t config_digest_;
  std::vector<std::pair<std::uint64_t, std::uint64_t>> hashes_;
  std::vector<std::string> checkpoint_paths_;
  std::uint64_t alarms_seen_ = 0;
  std::uint32_t postmortems_written_ = 0;
};

/// Maximum automatic post-mortem checkpoints per run (watchdog alarms can
/// repeat; one bundle per escalation is plenty).
inline constexpr std::uint32_t kMaxPostmortems = 4;

/// RAII arming of the MMR_ASSERT crash action.  The action runs once, with
/// the assert hook slot already cleared (an assert inside the action cannot
/// recurse), then the previously installed hook (trace flight dump) runs.
class CrashScope {
 public:
  explicit CrashScope(std::function<void()> action);
  ~CrashScope();
  CrashScope(const CrashScope&) = delete;
  CrashScope& operator=(const CrashScope&) = delete;
};

}  // namespace mmr::snapshot
