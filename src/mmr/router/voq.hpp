// Virtual Output Queues (`qd=voq` / the input stage of `qd=cicq`): one FIFO
// per destination output at each input link, eliminating the head-of-line
// blocking a single input FIFO suffers.  Per-VC occupancy is still tracked
// against the per-VC buffer budget so the NIC credit loop (and the credit-
// conservation audit) is unchanged: a VC's flits may spread across VOQs, but
// the link never holds more of them than its credit allowance.
#pragma once

#include <deque>
#include <vector>

#include "mmr/sim/time.hpp"
#include "mmr/traffic/flit.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class VoqMemory {
 public:
  VoqMemory(std::uint32_t outputs, std::uint32_t vcs,
            std::uint32_t capacity_per_vc);

  struct Slot {
    Flit flit;
    Cycle arrived;
    std::uint32_t vc;
  };

  [[nodiscard]] std::uint32_t outputs() const {
    return static_cast<std::uint32_t>(queues_.size());
  }
  [[nodiscard]] std::uint32_t vcs() const {
    return static_cast<std::uint32_t>(vc_count_.size());
  }
  [[nodiscard]] std::uint32_t capacity_per_vc() const { return capacity_; }

  /// Admission is still per-VC: the NIC holds capacity_per_vc credits for
  /// each VC regardless of which VOQ its flits land in.
  [[nodiscard]] bool can_accept(std::uint32_t vc) const;
  void push(std::uint32_t output, std::uint32_t vc, const Flit& flit,
            Cycle now);

  [[nodiscard]] bool empty(std::uint32_t output) const;
  [[nodiscard]] std::uint32_t occupancy(std::uint32_t output) const;
  [[nodiscard]] const Slot& head(std::uint32_t output) const;

  Slot pop(std::uint32_t output);

  /// Outputs currently holding at least one flit (unordered; O(1) upkeep).
  [[nodiscard]] const std::vector<std::uint32_t>& occupied_outputs() const {
    return occupied_;
  }
  /// Flits of `vc` currently queued here (any VOQ).
  [[nodiscard]] std::uint32_t vc_occupancy(std::uint32_t vc) const;
  /// Fault teardown: discards every flit of `vc`, appending it to `out`.
  void drain_vc(std::uint32_t vc, std::vector<Flit>& out);
  [[nodiscard]] std::uint64_t total_flits() const { return total_; }

  void check_invariants() const;

  /// Checkpoint walk: per-output FIFOs (flits + arrival stamps + VC tags),
  /// per-VC counts, the occupied-output index, and the total.
  void snap(snapshot::Walker& w);

 private:
  std::uint32_t capacity_;
  std::vector<std::deque<Slot>> queues_;    ///< one FIFO per output
  std::vector<std::uint32_t> vc_count_;     ///< flits held per VC
  std::vector<std::uint32_t> occupied_;
  std::vector<std::int32_t> occupied_pos_;  ///< output -> index in occupied_
  void unlist(std::uint32_t output);  ///< drops an emptied output
  std::uint64_t total_ = 0;
};

}  // namespace mmr
