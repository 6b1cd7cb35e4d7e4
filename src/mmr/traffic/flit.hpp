// Flit: the flow-control unit.  Flits are large (4096 bits by default) and
// forwarded synchronously through the crossbar; phit-level pipelining hides
// their serialization latency, so the engine treats one flit transfer as one
// scheduling cycle.
#pragma once

#include <cstdint>

#include "mmr/qos/connection.hpp"
#include "mmr/sim/time.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

/// Fields are ordered widest first, so only tail padding remains.
struct Flit {
  std::uint64_t seq = 0;       ///< per-connection sequence number
  Cycle generated_at = 0;      ///< when the source emitted this flit
  Cycle frame_origin = 0;      ///< when its frame was generated (application
                               ///< data unit boundary); == generated_at for
                               ///< CBR and best-effort traffic
  ConnectionId connection = kInvalidConnection;
  std::uint32_t frame = 0;     ///< video frame (VBR) / message (BE) index
  bool last_of_frame = false;  ///< closes its frame / message
  bool demoted = false;        ///< policed excess: scheduled at best-effort
                               ///< priority regardless of the VC's class
};
static_assert(sizeof(Flit) == 40, "Flit gained padding");

/// Checkpoint walk of one Flit.  Field-by-field, in the order the format
/// has always used: the struct has tail padding, so a whole-struct byte walk
/// would fold indeterminate bytes into the hash.
void snap_flit(snapshot::Walker& w, Flit& flit);

/// Interface implemented by every traffic generator.  Sources are pulled by
/// the engine: `next_emission()` says when the source has something to emit;
/// `generate(now, out)` appends every flit due at or before `now` (in
/// emission order) and advances the emission clock.
class TrafficSource {
 public:
  virtual ~TrafficSource() = default;

  [[nodiscard]] virtual ConnectionId connection() const = 0;

  /// Cycle of the next flit emission, or kNever for an exhausted source.
  [[nodiscard]] virtual Cycle next_emission() const = 0;

  virtual void generate(Cycle now, std::vector<Flit>& out) = 0;

  /// Long-run average offered bandwidth (bps) — used for load accounting.
  [[nodiscard]] virtual double mean_bps() const = 0;

  /// ECN-style congestion signal: scale the injection rate by `factor` in
  /// (0, 1].  Default is a no-op; rate-based sources stretch their
  /// inter-arrival times, and deliberately non-reactive sources (rogues)
  /// keep the default to model endpoints that ignore congestion marks.
  virtual void throttle(double factor) { (void)factor; }

  /// Checkpoint walk of the source's mutable state (emission clock, sequence
  /// counters, RNG position).  Every production source overrides this; the
  /// default no-op exists for stateless test doubles only.
  virtual void snap(snapshot::Walker& w) { (void)w; }
};

}  // namespace mmr
