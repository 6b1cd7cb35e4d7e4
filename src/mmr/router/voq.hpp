// Virtual Output Queues (`qd=voq` / the input stage of `qd=cicq`): one FIFO
// per destination output at each input link, eliminating the head-of-line
// blocking a single input FIFO suffers.  Per-VC occupancy is still tracked
// against the per-VC buffer budget so the NIC credit loop (and the credit-
// conservation audit) is unchanged: a VC's flits may spread across VOQs, but
// the link never holds more of them than its credit allowance.
#pragma once

#include <deque>
#include <functional>
#include <vector>

#include "mmr/arbiter/candidate.hpp"
#include "mmr/qos/priority.hpp"
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

/// Candidate selection over VOQs: the link scheduler's top-L policy
/// (priority descending, older head first, lower VC breaks ties) applied to
/// VOQ heads instead of per-VC heads.  A candidate's output is the VOQ
/// itself; its VC — and therefore its QoS constants and priority bias — is
/// the head flit's, so COA/SIABP ordering carries over unchanged and the
/// whole SwitchArbiter family runs on top without modification.
class VoqScheduler {
 public:
  VoqScheduler(std::uint32_t input_port, std::uint32_t levels,
               PriorityFunction priority, std::uint32_t phits_per_flit,
               std::vector<QosParams> qos_of_vc);

  /// Filter deciding whether a head VC may compete this cycle.
  using Eligibility = std::function<bool(std::uint32_t vc)>;

  /// Appends this port's candidates (up to `levels`) to `out`.
  void select(const VoqMemory& voq, Cycle now, CandidateSet& out,
              const Eligibility* eligible = nullptr) const;

  /// The biased priority the head flit of `output`'s VOQ has at `now`.
  [[nodiscard]] Priority head_priority(const VoqMemory& voq,
                                       std::uint32_t output, Cycle now) const;

  /// Rebinds `vc` to a re-admitted connection's QoS constants (the output
  /// binding lives in the router's VC routing map).
  void set_vc(std::uint32_t vc, QosParams qos);

  void set_demoted_qos(QosParams qos) { demoted_qos_ = qos; }

  /// Checkpoint walk: the VC QoS bindings and demotion constants.
  void snap(snapshot::Walker& w);

 private:
  std::uint32_t input_port_;
  std::uint32_t levels_;
  PriorityFunction priority_;
  std::uint32_t phits_per_flit_;
  std::vector<QosParams> qos_of_vc_;
  QosParams demoted_qos_{1, 1.0};
};

}  // namespace mmr
