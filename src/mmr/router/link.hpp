// Fixed-latency, one-item-per-cycle conduits: the physical link between NIC
// and router (flits) travels through one of these.  Links are short in the
// target environment (cluster/LAN), so latencies are a cycle or two.
#pragma once

#include <vector>

#include "mmr/sim/ring.hpp"
#include "mmr/sim/time.hpp"
#include "mmr/traffic/flit.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

/// A flit in flight on a physical link, tagged with its VC.
struct LinkTransfer {
  Flit flit;
  std::uint32_t vc = 0;
};

class LinkPipeline {
 public:
  explicit LinkPipeline(Cycle latency);

  [[nodiscard]] Cycle latency() const { return latency_; }
  [[nodiscard]] std::size_t in_flight() const { return in_flight_.size(); }

  /// One transfer may start per cycle (the link carries one flit at a time).
  void push(const LinkTransfer& transfer, Cycle now);

  /// Appends transfers arriving at or before `now` (in order); call with
  /// non-decreasing `now`.
  void pop_due(Cycle now, std::vector<LinkTransfer>& out) {
    if (now < last_pop_) [[unlikely]]
      fail_pop(now);
    last_pop_ = now;
    while (!in_flight_.empty() && in_flight_.front().arrives <= now) {
      out.push_back(in_flight_.front().transfer);
      in_flight_.pop_front();
    }
  }

  /// Total flits ever carried (for utilization accounting).
  [[nodiscard]] std::uint64_t carried() const { return carried_; }

  /// In-flight transfers tagged with `vc` (fault audits).
  [[nodiscard]] std::uint32_t in_flight_on_vc(std::uint32_t vc) const;

  /// Fault handling: removes every in-flight transfer tagged with `vc`
  /// (connection teardown) or all of them (the link went down).  Returns
  /// how many were removed.
  std::uint32_t drain_vc(std::uint32_t vc);
  std::uint32_t drain_all();

  void snap(snapshot::Walker& w);

 private:
  [[noreturn]] void fail_pop(Cycle now) const;

  struct InFlight {
    Cycle arrives;
    LinkTransfer transfer;
  };

  Cycle latency_;
  Cycle last_push_ = kNever;  ///< enforces one push per cycle
  Cycle last_pop_ = 0;        ///< enforces non-decreasing pop_due() times
  Ring<InFlight> in_flight_;  ///< at most latency + 1 transfers
  std::uint64_t carried_ = 0;
};

}  // namespace mmr
