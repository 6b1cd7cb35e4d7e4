// The workload digest: a 64-bit FNV-1a fingerprint over everything a mix
// builder places — each connection's descriptor, its path (hop by hop, with
// the reserved VCs) and its source's parameters (mean rate, phase, GOP
// alignment, BB peak, realised trace, best-effort stream).  Two workloads
// with equal digests drive a simulation identically.
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/snapshot/walker.hpp"
#include "mmr/traffic/mix.hpp"
#include "mmr/traffic/vbr.hpp"

namespace mmr::test {

template <typename T>
inline void fold(snapshot::HashWalker& w, T v) {
  snapshot::value(w, v);
}

/// A connection's hops.  A workload without paths is one router whose
/// every connection is the single hop its table entry names.
inline std::vector<Hop> path_of(const Workload& workload, ConnectionId id) {
  if (id < workload.connections.size()) return workload.connections[id].path;
  const ConnectionDescriptor& d = workload.table.get(id);
  return {Hop{0, d.input_link, d.output_link, d.vc}};
}

inline std::uint64_t workload_digest(Workload& workload) {
  workload.check_invariants();
  snapshot::HashWalker w;
  fold(w, static_cast<std::uint64_t>(workload.size()));
  for (ConnectionId id = 0; id < workload.size(); ++id) {
    const ConnectionDescriptor& d = workload.table.get(id);
    fold(w, d.id);
    fold(w, static_cast<std::uint8_t>(d.traffic_class));
    fold(w, d.input_link);
    fold(w, d.output_link);
    fold(w, d.vc);
    fold(w, d.mean_bandwidth_bps);
    fold(w, d.peak_bandwidth_bps);
    fold(w, d.slots_per_round);
    fold(w, d.peak_slots_per_round);
    const std::vector<Hop> path = path_of(workload, id);
    fold(w, static_cast<std::uint64_t>(path.size()));
    for (const Hop& hop : path) {
      fold(w, hop.router);
      fold(w, hop.in_port);
      fold(w, hop.out_port);
      fold(w, hop.vc);
    }
    TrafficSource& source = *workload.sources[id];
    fold(w, source.mean_bps());
    // The initial walk: a CBR source's next emission is its phase, a best
    // effort source carries its forked stream.
    source.snap(w);
    if (const auto* vbr = dynamic_cast<const VbrSource*>(&source)) {
      fold(w, vbr->phase_cycles());
      fold(w, vbr->start_frame());
      fold(w, vbr->peak_iat_cycles());
      for (const std::uint64_t bits : vbr->trace().frame_bits) fold(w, bits);
    }
  }
  return w.digest();
}

}  // namespace mmr::test
