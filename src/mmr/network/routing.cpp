#include "mmr/network/routing.hpp"

#include <limits>
#include <queue>

namespace mmr {

namespace {

constexpr std::uint32_t kUnreached = std::numeric_limits<std::uint32_t>::max();

/// BFS parents: for each router, the (router, out_port) used to reach it.
struct Reach {
  std::uint32_t distance = kUnreached;
  std::uint32_t via_router = 0;
  std::uint32_t via_out_port = 0;
  std::uint32_t via_in_port = 0;
};

std::vector<Reach> bfs(const NetworkTopology& topology, std::uint32_t src,
                       const LinkFilter& blocked) {
  std::vector<Reach> reach(topology.routers());
  reach[src].distance = 0;
  std::queue<std::uint32_t> queue;
  queue.push(src);
  while (!queue.empty()) {
    const std::uint32_t router = queue.front();
    queue.pop();
    for (std::uint32_t port = 0; port < topology.ports_per_router(); ++port) {
      const auto next = topology.downstream(router, port);
      if (!next.has_value()) continue;
      if (blocked && blocked(router, port)) continue;
      Reach& r = reach[next->router];
      if (r.distance != kUnreached) continue;
      r.distance = reach[router].distance + 1;
      r.via_router = router;
      r.via_out_port = port;
      r.via_in_port = next->port;
      queue.push(next->router);
    }
  }
  return reach;
}

}  // namespace

std::vector<Hop> compute_path_avoiding(const NetworkTopology& topology,
                                       std::uint32_t src_router,
                                       std::uint32_t src_port,
                                       std::uint32_t dst_router,
                                       std::uint32_t dst_port,
                                       const LinkFilter& blocked) {
  MMR_ASSERT_MSG(topology.input_is_local(src_router, src_port),
                 "source must inject on a local input port");
  MMR_ASSERT_MSG(topology.output_is_local(dst_router, dst_port),
                 "destination must eject on a local output port");
  // A sink on the source's router is one hop, crossing no link (the BFS
  // would say the same; this skips its allocations for every one-router
  // connection).
  if (src_router == dst_router) return {Hop{src_router, src_port, dst_port}};

  const std::vector<Reach> reach = bfs(topology, src_router, blocked);
  if (reach[dst_router].distance == kUnreached) return {};

  // Reconstruct the router sequence backwards.
  std::vector<Hop> path(reach[dst_router].distance + 1);
  std::uint32_t router = dst_router;
  for (std::size_t i = path.size(); i-- > 0;) {
    path[i].router = router;
    if (i + 1 < path.size()) {
      // Output port chosen when computing hop i+1's reach.
      path[i].out_port = reach[path[i + 1].router].via_out_port;
    }
    if (i > 0) {
      path[i].in_port = reach[router].via_in_port;
      router = reach[router].via_router;
    }
  }
  path.front().in_port = src_port;
  path.back().out_port = dst_port;
  return path;
}

std::vector<Hop> compute_path(const NetworkTopology& topology,
                              std::uint32_t src_router, std::uint32_t src_port,
                              std::uint32_t dst_router,
                              std::uint32_t dst_port) {
  std::vector<Hop> path = compute_path_avoiding(
      topology, src_router, src_port, dst_router, dst_port, nullptr);
  MMR_ASSERT_MSG(!path.empty(), "destination router unreachable");
  return path;
}

std::uint32_t path_length(const NetworkTopology& topology,
                          std::uint32_t src_router, std::uint32_t dst_router) {
  const std::vector<Reach> reach = bfs(topology, src_router, nullptr);
  MMR_ASSERT(reach[dst_router].distance != kUnreached);
  return reach[dst_router].distance + 1;
}

}  // namespace mmr
