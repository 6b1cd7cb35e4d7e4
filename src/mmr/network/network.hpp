// Workloads for a network of MMRs (the paper's future work, Section 6):
// connections follow fixed shortest paths, one VC reserved per traversed
// input link.  MmrSimulation runs them; the network names are aliases.
#pragma once

#include "mmr/core/simulation.hpp"
#include "mmr/network/routing.hpp"
#include "mmr/network/topology.hpp"
#include "mmr/traffic/mix.hpp"

namespace mmr {

using MmrNetworkSimulation = MmrSimulation;
using NetworkMetrics = SimulationMetrics;
using NetworkWorkload = Workload;

/// Builds a CBR mix over the network: per local input port, connections are
/// drawn from the spec's classes until `target_load` is reached;
/// destinations are uniform over all local output ports of other placements
/// (uniform-random policy only — balancing is topology-dependent).
[[nodiscard]] Workload build_network_cbr_mix(const SimConfig& config,
                                             const NetworkTopology& topology,
                                             const CbrMixSpec& spec, Rng& rng);

/// Builds an MPEG-2 VBR mix over the network (the paper's video workload on
/// its future-work topology): per local input port, sequences are drawn
/// uniformly from the library until `target_load` of average bandwidth is
/// placed; the BB peak is workload-wide, as in the single-router builder.
[[nodiscard]] Workload build_network_vbr_mix(const SimConfig& config,
                                             const NetworkTopology& topology,
                                             const VbrMixSpec& spec, Rng& rng);

}  // namespace mmr
