// Queue-discipline configuration (`qd=` SimConfig override, DESIGN.md §16):
// the paper's per-VC input queueing (`vc`), per-input virtual output queues
// under the unchanged SwitchArbiter API (`voq`), or combined input-
// crosspoint queueing with RR/RR scheduling and Gunther's burst-
// stabilization credit protocol (`cicq`).  Pure data; an empty `qd=` (or
// "vc") instantiates none of the VOQ/CICQ machinery.
#pragma once

#include <cstdint>

#include "mmr/sim/spec_parser.hpp"

namespace mmr {

/// Which input-queueing discipline the router runs.
enum class QueueDiscipline : std::uint8_t {
  kVc,    ///< per-VC input queues + link scheduler (the paper's model)
  kVoq,   ///< virtual output queues in front of the SwitchArbiter API
  kCicq,  ///< VOQs + per-crosspoint buffers with RR/RR scheduling
};

[[nodiscard]] const char* to_string(QueueDiscipline d);

struct QdSpec : spec::Parsed<QdSpec> {
  QueueDiscipline discipline = QueueDiscipline::kVc;

  // --- cicq only ----------------------------------------------------------
  /// Burst stabilization: a VOQ backed up past `burst_threshold` gets the
  /// crosspoint's full depth in credits instead of one, pipelining the
  /// credit round-trip that caps bursty throughput at 1/(1 + round-trip).
  bool stabilize = true;
  /// Per-crosspoint buffer depth, flits (`xp:`).
  std::uint32_t crosspoint_flits = 2;
  /// VOQ occupancy at which stabilization unlocks burst credits (`thresh:`).
  std::uint32_t burst_threshold = 4;

  static const spec::Grammar& grammar();
  bool operator==(const QdSpec&) const = default;

  /// Throws std::invalid_argument on an out-of-range field.
  void validate() const;
};

}  // namespace mmr
