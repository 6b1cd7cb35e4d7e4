// Workload construction: turns a target offered load into a set of admitted
// connections plus their traffic sources, the way the paper's experiments
// are set up — random mixes of CBR classes, or MPEG-2 VBR connections with
// random destinations and random GOP alignment, per local input port of any
// topology (one router or a routed fabric).
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

/// A complete workload, validated once against its topology: one list of
/// connections, each with its host-view table entry, the path its routing
/// probe reserved and one traffic source (all indexed by ConnectionId).
/// The paper's setup is `single(ports)`, where every path is one hop.
struct Workload {
  explicit Workload(std::uint32_t ports)
      : Workload(NetworkTopology::single(ports)) {}
  explicit Workload(NetworkTopology topology_)
      : topology(std::move(topology_)),
        table(topology.routers() * topology.ports_per_router()),
        reserved_vcs_(table.ports(), 0) {}

  NetworkTopology topology;
  /// Every connection as its hosts see it: class, rates, reserved slots, the
  /// input link (and VC) it enters on and the output link it leaves on.  A
  /// link index is `router * ports_per_router + port`, so on a one-router
  /// topology this is exactly that router's connection table.
  ConnectionTable table;
  /// Per connection, the path its routing probe reserved: one hop per
  /// router traversed, each with its VC on that router's input link.  On a
  /// one-router topology it is the single hop
  /// {0, input_link, output_link, vc}.
  std::vector<NetworkConnection> connections;
  std::vector<std::unique_ptr<TrafficSource>> sources;

  /// Registers one connection: the only way connections enter a workload,
  /// and where each is validated against the topology (a path from a local
  /// input to a local output, hop to hop along channels).  The table entry
  /// is `descriptor` (class, rates, slots) with its links set from the
  /// path's ends; each hop takes the next free VC of its (router, input
  /// port); `source` must be built for id `size()`.
  ConnectionId add(ConnectionDescriptor descriptor, std::vector<Hop> path,
                   std::uint32_t vcs_per_link,
                   std::unique_ptr<TrafficSource> source);
  /// VCs add() has reserved per (router, input port), router-major.
  [[nodiscard]] const std::vector<std::uint32_t>& reserved_vcs() const {
    return reserved_vcs_;
  }

  /// Mean generated load fraction, averaged over local input links.
  [[nodiscard]] double generated_load(const TimeBase& time_base) const;
  /// Mean generated load fraction of one input link.
  [[nodiscard]] double generated_load_on_input(std::uint32_t link,
                                               const TimeBase& time_base) const;
  [[nodiscard]] std::size_t size() const { return sources.size(); }

  /// One source and one path per connection, each under its id (add()
  /// validated the paths).
  void check_invariants() const;

 private:
  std::vector<std::uint32_t> reserved_vcs_;
};

/// How connection destinations are drawn from the topology's local output
/// ports (its sinks).  The paper draws them uniformly at random; with few
/// ports a single unlucky draw can overload one output link and dominate a
/// sweep point, so the benches default to kBalanced — each new connection
/// goes to the currently least-loaded sink, with random tie-breaks (still
/// random, but stratified).
enum class DestinationPolicy : std::uint8_t { kUniformRandom, kBalanced };

struct CbrMixSpec {
  double target_load = 0.5;  ///< per-input-link fraction of link bandwidth
  std::vector<CbrClass> classes = {kCbrLow, kCbrMedium, kCbrHigh};
  std::vector<double> class_weights = {1.0, 1.0, 1.0};
  DestinationPolicy destinations = DestinationPolicy::kUniformRandom;
  /// >= 0 pins every connection of this mix onto that sink (an index into
  /// the local output ports, router-major; on one router the output link),
  /// overriding `destinations` — the incast pattern the MMU benches lean on
  /// (many inputs converging on one hot output).
  std::int32_t hot_output = -1;
  /// When true, connections failing the CAC test are dropped (the paper's
  /// sweeps push load to 100%, which CBR admission permits).  Admission is
  /// scoped to one add_* call: it does not see reservations made by earlier
  /// calls on the same workload.  Admission control is per router, so it
  /// needs a one-router topology (aborts otherwise).
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

/// Adds the paper's CBR workload to `workload`, on any topology: per local
/// input port (router-major), connections are drawn from `classes` by
/// weight until `target_load` of *additional* bandwidth has been placed or
/// a VC on the way runs out; each goes to a sink per the `destinations`
/// policy along its shortest path, and each source gets a random phase.
///
/// Note on RNG streams: each port draws from the child stream
/// `rng.fork(base + router * 64 + port)`, derived from the *identity* of
/// `rng` (not its position), so two add_cbr_mix calls with the same Rng
/// object would draw identical mixes — pass distinct streams when layering
/// several mixes of the same kind.
void add_cbr_mix(Workload& workload, const SimConfig& config,
                 const CbrMixSpec& spec, Rng& rng);

/// Adds the paper's VBR workload to `workload`, on any topology: per local
/// input port, sequences are drawn uniformly from the MPEG-2 library until
/// `target_load` of additional average bandwidth has been placed; every
/// connection gets its own realised trace and a random alignment within
/// one GOP time.  The BB peak rate is the workload-wide largest frame /
/// frame period, as the paper specifies.
void add_vbr_mix(Workload& workload, const SimConfig& config,
                 const VbrMixSpec& spec, Rng& rng);

/// Adds best-effort background connections on every local input port of
/// an existing workload, to uniformly drawn sinks.
void add_best_effort(Workload& workload, const SimConfig& config,
                     const BestEffortSpec& spec, Rng& rng);

/// Convenience single-mix constructors on `single(config.ports)`.
[[nodiscard]] Workload build_cbr_mix(const SimConfig& config,
                                     const CbrMixSpec& spec, Rng& rng);
[[nodiscard]] Workload build_vbr_mix(const SimConfig& config,
                                     const VbrMixSpec& spec, Rng& rng);

}  // namespace mmr
