// Connection admission control (Section 2, "Connection Set up").
//
// CBR: admitted iff the flit cycles allocated by all connections on each
// link of the path stay within the flit cycles of one round.
// VBR: admitted iff (a) the sum of *permanent* (average) bandwidth fits in a
// round AND (b) the sum of *peak* bandwidth fits in round x concurrency
// factor.  The concurrency factor trades QoS strength against the number of
// concurrently serviced connections and link utilization.
// Best-effort connections reserve nothing and are always admitted (they only
// need a free VC, which the caller guarantees).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <vector>

#include "mmr/qos/connection.hpp"
#include "mmr/qos/rounds.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class AdmissionController {
 public:
  AdmissionController(std::uint32_t ports, RoundAccounting rounds,
                      double concurrency_factor);

  /// Tries to admit the connection: checks the input-link and output-link
  /// budgets and, on success, fills in slots_per_round /
  /// peak_slots_per_round and commits the reservation.  Returns false (and
  /// leaves the descriptor and budgets untouched) on rejection.
  [[nodiscard]] bool try_admit(ConnectionDescriptor& descriptor);

  /// Releases a previously admitted connection's reservation.  Releasing a
  /// QoS descriptor that was never admitted here — or releasing one more
  /// often than it was admitted — is a checked error (aborts with a
  /// message) rather than a silent LinkBudget underflow.
  void release(const ConnectionDescriptor& descriptor);

  /// Outstanding QoS reservations (admitted minus released).
  [[nodiscard]] std::uint64_t outstanding_reservations() const;

  [[nodiscard]] const RoundAccounting& rounds() const { return rounds_; }
  [[nodiscard]] double concurrency_factor() const {
    return concurrency_factor_;
  }

  /// Reserved mean slots on a link (diagnostics / tests).
  [[nodiscard]] std::uint32_t input_mean_slots(std::uint32_t link) const;
  [[nodiscard]] std::uint32_t output_mean_slots(std::uint32_t link) const;
  [[nodiscard]] std::uint32_t input_peak_slots(std::uint32_t link) const;

  /// Fraction of the round reserved (mean) on the busiest link.
  [[nodiscard]] double max_mean_utilization() const;

  /// Checkpoint walk: link budgets and the reservation ledger (both mutate
  /// as fault recovery releases and re-admits connections).
  void snap(snapshot::Walker& w);

 private:
  struct LinkBudget {
    std::uint64_t mean_slots = 0;
    std::uint64_t peak_slots = 0;
  };

  [[nodiscard]] bool fits(const LinkBudget& budget, std::uint32_t mean_slots,
                          std::uint32_t peak_slots) const;

  /// Reservation identity: {input, output, mean_slots, peak_slots}.  Slot
  /// counts are deterministic functions of the declared bandwidths (see
  /// RoundAccounting), so a descriptor re-derived for the same connection
  /// maps to the same key.
  using ReservationKey = std::array<std::uint32_t, 4>;

  std::uint32_t ports_;
  RoundAccounting rounds_;
  double concurrency_factor_;
  std::vector<LinkBudget> input_budget_;
  std::vector<LinkBudget> output_budget_;
  /// Multiset of live reservations; release() checks against it.
  std::map<ReservationKey, std::uint32_t> ledger_;
};

}  // namespace mmr
