// Credit-based flow control between NIC and MMR (Section 2, "Flow
// Control").  One credit per VC buffer slot; the NIC consumes a credit when
// it forwards a flit and the router returns it (after a small propagation
// latency) when the flit leaves the VC buffer through the crossbar.  This
// is what lets the MMR avoid data losses with only a few flits of buffering.
// Returns travel in a ring (release times never decrease) next to a per-VC
// count of the returns in flight, so every query is O(1).
#pragma once

#include <vector>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/ring.hpp"
#include "mmr/sim/time.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class CreditManager {
 public:
  CreditManager(std::uint32_t vcs, std::uint32_t credits_per_vc,
                Cycle return_latency);

  [[nodiscard]] std::uint32_t vcs() const {
    return static_cast<std::uint32_t>(credits_.size());
  }
  [[nodiscard]] std::uint32_t credits(std::uint32_t vc) const {
    MMR_ASSERT(vc < vcs());
    return credits_[vc];
  }
  [[nodiscard]] bool has_credit(std::uint32_t vc) const {
    return credits(vc) > 0;
  }

  /// NIC side: consumes one credit to send a flit.
  void consume(std::uint32_t vc) {
    MMR_ASSERT(vc < vcs());
    MMR_ASSERT_MSG(credits_[vc] > 0, "sent without a credit");
    --credits_[vc];
  }

  /// Router side: schedules a credit return; it becomes usable at
  /// `now + return_latency`.
  void release(std::uint32_t vc, Cycle now);

  /// Applies every credit whose return has propagated by `now`.  Must be
  /// called with non-decreasing `now`.  Each VC whose count this lifts off
  /// zero is appended to `refilled` when given (eligibility masks track the
  /// zero crossings).
  void tick(Cycle now, std::vector<std::uint32_t>* refilled = nullptr) {
    // Inline early-out: most cycles nothing has propagated yet.
    if (!pending_.empty() && pending_.front().ready <= now)
      apply_due(now, refilled);
  }

  [[nodiscard]] std::uint32_t in_flight() const {
    return static_cast<std::uint32_t>(pending_.size());
  }

  /// Credits of `vc` currently travelling back (subset of in_flight()).
  [[nodiscard]] std::uint32_t pending_for(std::uint32_t vc) const {
    MMR_ASSERT(vc < vcs());
    return pending_per_vc_[vc];
  }

  [[nodiscard]] std::uint32_t capacity_per_vc() const {
    return credits_per_vc_;
  }

  /// Fault recovery: re-creates `count` credits that leaked (their flits
  /// were lost on a faulty link, so no release() will ever arrive).  The
  /// caller — the credit-resync watchdog — is responsible for having audited
  /// that the credits are genuinely unaccounted for.  The CICQ burst-
  /// stabilization protocol uses the same entry point to unlock a
  /// crosspoint's parked credits when a VOQ backs up.
  void restore(std::uint32_t vc, std::uint32_t count);

  /// Inverse of restore(): parks `count` of `vc`'s immediately available
  /// credits so they cannot be consumed (CICQ base allotment — a crosspoint
  /// exposes one credit until burst stabilization unlocks its full depth).
  /// Only credits currently held can be parked; in-flight returns and
  /// occupied slots are untouchable.
  void reclaim(std::uint32_t vc, std::uint32_t count);

  void check_invariants() const;

  /// Checkpoint walk: live credit counts and every in-flight return.
  void snap(snapshot::Walker& w);

 private:
  struct PendingReturn {
    Cycle ready;
    std::uint32_t vc;
  };

  void apply_due(Cycle now, std::vector<std::uint32_t>* refilled);

  std::uint32_t credits_per_vc_;
  Cycle return_latency_;
  std::vector<std::uint32_t> credits_;
  Ring<PendingReturn> pending_;  ///< FIFO: release() times non-decreasing
  std::vector<std::uint32_t> pending_per_vc_;
};

}  // namespace mmr
