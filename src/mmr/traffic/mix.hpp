// Workload construction: turns a target offered load into a set of admitted
// connections plus their traffic sources, the way the paper's experiments
// are set up — random mixes of CBR classes, or MPEG-2 VBR connections with
// random destinations and random GOP alignment, per input link.
#pragma once

#include <memory>
#include <vector>

#include "mmr/network/routing.hpp"
#include "mmr/qos/admission.hpp"
#include "mmr/qos/connection.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/sim/rng.hpp"
#include "mmr/traffic/cbr.hpp"
#include "mmr/traffic/vbr.hpp"

namespace mmr {

/// A complete workload: a topology, its connections and one traffic source
/// per connection (indexed by ConnectionId).  The paper's setup is a single
/// router with every port local; a network workload adds each connection's
/// reserved multi-hop path.
struct Workload {
  explicit Workload(std::uint32_t ports)
      : Workload(NetworkTopology::single(ports)) {}
  explicit Workload(NetworkTopology topology_)
      : topology(std::move(topology_)),
        table(topology.routers() * topology.ports_per_router()) {}

  NetworkTopology topology;
  /// Every connection as its hosts see it: class, rates, reserved slots, the
  /// input link (and VC) it enters on and the output link it leaves on.  A
  /// link index is `router * ports_per_router + port`, so on a one-router
  /// topology this is exactly that router's connection table.
  ConnectionTable table;
  /// Per connection, the path a routing probe reserved (one VC per hop).
  /// Empty for a one-router workload built on `table` alone, whose single
  /// hop is the table entry itself.
  std::vector<NetworkConnection> connections;
  std::vector<std::unique_ptr<TrafficSource>> sources;

  /// Mean generated load fraction, averaged over local input links.
  [[nodiscard]] double generated_load(const TimeBase& time_base) const;
  /// Mean generated load fraction of one input link.
  [[nodiscard]] double generated_load_on_input(std::uint32_t link,
                                               const TimeBase& time_base) const;
  [[nodiscard]] std::size_t size() const { return sources.size(); }

  void check_invariants() const;
};

/// How connection destinations are drawn.  The paper draws them uniformly at
/// random; with few ports a single unlucky draw can overload one output link
/// and dominate a sweep point, so the benches default to kBalanced — each new
/// connection goes to the currently least-loaded output, with random
/// tie-breaks (still random, but stratified).
enum class DestinationPolicy : std::uint8_t { kUniformRandom, kBalanced };

struct CbrMixSpec {
  double target_load = 0.5;  ///< per-input-link fraction of link bandwidth
  std::vector<CbrClass> classes = {kCbrLow, kCbrMedium, kCbrHigh};
  std::vector<double> class_weights = {1.0, 1.0, 1.0};
  DestinationPolicy destinations = DestinationPolicy::kUniformRandom;
  /// >= 0 pins every connection of this mix onto that output link,
  /// overriding `destinations` — the incast pattern the MMU benches lean on
  /// (many inputs converging on one hot output).
  std::int32_t hot_output = -1;
  /// When true, connections failing the CAC test are dropped (the paper's
  /// sweeps push load to 100%, which CBR admission permits).  Admission is
  /// scoped to one add_* call: it does not see reservations made by earlier
  /// calls on the same workload.
  bool enforce_admission = false;
};

struct VbrMixSpec {
  double target_load = 0.5;
  InjectionModel model = InjectionModel::kSmoothRate;
  std::uint32_t trace_gops = 8;  ///< realised trace length (repeats)
  DestinationPolicy destinations = DestinationPolicy::kUniformRandom;
  bool enforce_admission = false;
};

struct BestEffortSpec {
  double load = 0.1;  ///< per-input-link fraction
  std::uint32_t connections_per_link = 4;
  double mean_message_flits = 8.0;
};

/// Adds the paper's CBR workload to `workload`: per input link, connections
/// are drawn from `classes` by weight until `target_load` of *additional*
/// bandwidth has been placed; destinations per `destinations` policy; each
/// source gets a random phase.
///
/// Note on RNG streams: the builders derive per-link child streams from the
/// *identity* of `rng` (not its position), so two add_cbr_mix calls with the
/// same Rng object would draw identical mixes — pass distinct streams when
/// layering several mixes of the same kind.
void add_cbr_mix(Workload& workload, const SimConfig& config,
                 const CbrMixSpec& spec, Rng& rng);

/// Adds the paper's VBR workload to `workload`: per input link, sequences
/// are drawn uniformly from the MPEG-2 library until `target_load` of
/// additional average bandwidth has been placed; every connection gets its
/// own realised trace and a random alignment within one GOP time.  The BB
/// peak rate is the workload-wide largest frame / frame period, as the
/// paper specifies.
void add_vbr_mix(Workload& workload, const SimConfig& config,
                 const VbrMixSpec& spec, Rng& rng);

/// Adds best-effort background connections to an existing workload.
void add_best_effort(Workload& workload, const SimConfig& config,
                     const BestEffortSpec& spec, Rng& rng);

/// Convenience single-mix constructors.
[[nodiscard]] Workload build_cbr_mix(const SimConfig& config,
                                     const CbrMixSpec& spec, Rng& rng);
[[nodiscard]] Workload build_vbr_mix(const SimConfig& config,
                                     const VbrMixSpec& spec, Rng& rng);

}  // namespace mmr
