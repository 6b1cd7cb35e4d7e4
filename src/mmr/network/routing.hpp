// Path computation for pipelined circuit switching: at connection setup a
// routing probe walks from source to destination reserving one VC per hop.
// We model it as shortest-path (BFS) routing over the router graph, fixed
// for the connection's lifetime.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "mmr/network/topology.hpp"
#include "mmr/qos/connection.hpp"

namespace mmr {

/// One router traversal of a connection's path.
struct Hop {
  std::uint32_t router = 0;
  std::uint32_t in_port = 0;   ///< input link entered on
  std::uint32_t out_port = 0;  ///< output link left on
  std::uint32_t vc = 0;        ///< VC reserved on (router, in_port);
                               ///< assigned by the network builder

  friend bool operator==(const Hop&, const Hop&) = default;
};

/// A connection's class, rates and reserved path (hop 0 enters on the
/// source's local input port, the last hop leaves on the sink's local
/// output port).
struct NetworkConnection {
  ConnectionId id = kInvalidConnection;
  TrafficClass traffic_class = TrafficClass::kCbr;
  double mean_bandwidth_bps = 0.0;
  double peak_bandwidth_bps = 0.0;
  std::vector<Hop> path;

  [[nodiscard]] const Hop& first_hop() const { return path.front(); }
  [[nodiscard]] const Hop& last_hop() const { return path.back(); }
};

/// Shortest path from (src_router, src local input port) to (dst_router,
/// dst local output port).  Returns one Hop per traversed router; hop 0
/// enters on the source's local port, the last hop leaves on the
/// destination's local port.  Aborts when the endpoints are not local or no
/// path exists (VC fields are left 0 for the builder to fill).
[[nodiscard]] std::vector<Hop> compute_path(const NetworkTopology& topology,
                                            std::uint32_t src_router,
                                            std::uint32_t src_port,
                                            std::uint32_t dst_router,
                                            std::uint32_t dst_port);

/// Predicate marking an inter-router link as unusable for routing (true =
/// (router, out_port) must be avoided — e.g. the channel is down).
using LinkFilter = std::function<bool(std::uint32_t router,
                                      std::uint32_t out_port)>;

/// Like compute_path, but routes around links the filter blocks, falling
/// back to the next shortest usable path.  Returns an empty vector when no
/// usable path exists (instead of aborting) so the caller can drop the
/// connection gracefully.  A null filter blocks nothing.
[[nodiscard]] std::vector<Hop> compute_path_avoiding(
    const NetworkTopology& topology, std::uint32_t src_router,
    std::uint32_t src_port, std::uint32_t dst_router, std::uint32_t dst_port,
    const LinkFilter& blocked);

/// Router-level hop distance (number of routers traversed).
[[nodiscard]] std::uint32_t path_length(const NetworkTopology& topology,
                                        std::uint32_t src_router,
                                        std::uint32_t dst_router);

}  // namespace mmr
