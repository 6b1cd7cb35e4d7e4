// The old network names of the one engine, its metrics and its workload,
// and the builders on an explicit topology.  Everything else uses
// MmrSimulation / SimulationMetrics / Workload(topology) + add_*_mix; this
// header and the mmr_network target stay only for the benchmark harness
// (mmrbench/) and go with its next change (ROADMAP item 8).
#pragma once

#include "mmr/core/simulation.hpp"
#include "mmr/network/routing.hpp"
#include "mmr/network/topology.hpp"
#include "mmr/traffic/mix.hpp"

namespace mmr {

using MmrNetworkSimulation = MmrSimulation;
using NetworkMetrics = SimulationMetrics;
using NetworkWorkload = Workload;

/// add_cbr_mix on an empty workload over `topology`.
[[nodiscard]] inline Workload build_network_cbr_mix(
    const SimConfig& config, const NetworkTopology& topology,
    const CbrMixSpec& spec, Rng& rng) {
  Workload workload(topology);
  add_cbr_mix(workload, config, spec, rng);
  return workload;
}

/// add_vbr_mix on an empty workload over `topology`.
[[nodiscard]] inline Workload build_network_vbr_mix(
    const SimConfig& config, const NetworkTopology& topology,
    const VbrMixSpec& spec, Rng& rng) {
  Workload workload(topology);
  add_vbr_mix(workload, config, spec, rng);
  return workload;
}

}  // namespace mmr
