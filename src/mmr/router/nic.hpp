// Network Interface Card model (Figure 4).  Traffic sources deposit flits
// into per-connection buffers considered infinite (host memory backs them);
// the physical link controller forwards flits of connections that have both
// a flit and a credit, in demand-driven round-robin order, one flit per
// cycle.  The paper shows this simple policy suffices because the router's
// scheduler, small buffers and flow control make the NIC adapt to the
// router's needs.  The controller visits only connections holding a flit:
// a bitmap of non-empty queues is searched cyclically from the round-robin
// cursor, and credits are read live from the CreditManager.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mmr/router/credits.hpp"
#include "mmr/router/link.hpp"
#include "mmr/sim/ring.hpp"
#include "mmr/sim/time.hpp"
#include "mmr/traffic/flit.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class Nic {
 public:
  /// `vcs` = connections attached to this NIC's link (VC-indexed).
  Nic(std::uint32_t vcs, std::uint32_t credits_per_vc, Cycle credit_latency);

  [[nodiscard]] std::uint32_t vcs() const {
    return static_cast<std::uint32_t>(queues_.size());
  }

  /// Source side: deposits a generated flit (infinite buffer).
  void deposit(std::uint32_t vc, const Flit& flit);

  /// Router side: returns a credit (usable after the credit latency).
  void return_credit(std::uint32_t vc, Cycle now) {
    credits_.release(vc, now);
  }

  /// Link controller: applies due credits, then picks the next connection
  /// in demand-driven round-robin order with a flit and a credit.  Returns
  /// the flit to put on the link, or nothing if no connection is eligible.
  [[nodiscard]] std::optional<LinkTransfer> select_and_send(Cycle now);

  /// Xon/Xoff pause from the shared-buffer MMU (flow=shared only).  While
  /// paused the NIC stalls — flits stay queued in the infinite source
  /// buffers, nothing is ever dropped here — which is the lossless half of
  /// the pause contract.  Credits still tick while paused.
  void set_paused(bool paused) { paused_ = paused; }
  [[nodiscard]] bool paused() const { return paused_; }

  /// Fault recovery: moves every queued flit of `from_vc` to the back of
  /// `to_vc`'s queue (the connection was re-admitted on a different VC of a
  /// rerouted path; flits still in host memory follow it).
  void move_queue(std::uint32_t from_vc, std::uint32_t to_vc);

  [[nodiscard]] std::size_t queued(std::uint32_t vc) const;
  [[nodiscard]] std::uint64_t total_queued() const { return total_queued_; }
  [[nodiscard]] std::uint64_t total_sent() const { return total_sent_; }
  [[nodiscard]] const CreditManager& credits() const { return credits_; }

  void check_invariants() const;

  /// Checkpoint walk: per-VC queues (flit payloads included), credit state,
  /// round-robin cursor, counters, the number of non-empty queues, pause
  /// flag.  The non-empty bitmap is rebuilt from the queues on load.
  void snap(snapshot::Walker& w);

 private:
  std::vector<Ring<Flit>> queues_;
  std::vector<std::uint64_t> backlogged_;  ///< bit per VC: queue non-empty
  CreditManager credits_;
  std::uint32_t rr_next_ = 0;  ///< round-robin cursor
  std::uint64_t total_queued_ = 0;
  std::uint64_t total_sent_ = 0;
  bool paused_ = false;  ///< Xoff asserted by the shared-buffer MMU
};

}  // namespace mmr
