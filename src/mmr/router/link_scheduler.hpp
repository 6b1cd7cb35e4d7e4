// Link scheduling / candidate selection (Sections 3.1 and 4): per input
// port, pick the L queue heads carrying the highest biased priorities.
// Level 0 is the top-priority candidate.  Queue ages are measured in router
// (phit) cycles since the head flit entered the input buffer, as SIABP's
// hardware counters do.
//
// One scheduler per input serves every queue discipline (`qd=`): it selects
// over the heads of its input buffer, keyed by VC or by output, and it owns
// each VC's bindings — output port, QoS constants, demoted QoS — which
// every discipline checkpoints through snap().
#pragma once

#include <vector>

#include "mmr/arbiter/candidate.hpp"
#include "mmr/qos/priority.hpp"
#include "mmr/router/eligibility.hpp"
#include "mmr/router/input_buffer.hpp"

namespace mmr {

class LinkScheduler {
 public:
  /// `output_of_vc[vc]` — the output port each VC's connection was routed
  /// to at setup; `qos_of_vc[vc]` — the priority-function constants.
  LinkScheduler(std::uint32_t input_port, std::uint32_t levels,
                PriorityFunction priority, std::uint32_t phits_per_flit,
                std::vector<std::uint32_t> output_of_vc,
                std::vector<QosParams> qos_of_vc);

  /// Appends this port's candidates (up to `levels`) to `out`: the queue
  /// heads, each aimed at its VC's output, with its VC's QoS constants and
  /// tie-break.  The ranking is a total order, so the keying does not
  /// matter.  Heads `eligible` refuses stay out (a null mask makes every
  /// head eligible).
  void select(const InputBuffer& buffer, Cycle now, CandidateSet& out,
              const EligibilityMask* eligible = nullptr) const;

  /// The biased priority the head flit of `key` has at `now` (test hook).
  [[nodiscard]] Priority head_priority(const InputBuffer& buffer,
                                       std::uint32_t key, Cycle now) const;

  /// The output port `vc` is bound to.
  [[nodiscard]] std::uint32_t output_of(std::uint32_t vc) const;

  /// Rebinds `vc` to a new connection (fault recovery: a torn-down
  /// connection is re-admitted on a fresh VC of its rerouted path).
  void set_vc(std::uint32_t vc, std::uint32_t output, QosParams qos);

  /// Priority constants applied to head flits carrying the `demoted` flag
  /// (overload policing): the claim of a minimal best-effort reservation.
  void set_demoted_qos(QosParams qos) { demoted_qos_ = qos; }
  [[nodiscard]] const QosParams& demoted_qos() const { return demoted_qos_; }

  [[nodiscard]] std::uint32_t levels() const { return levels_; }

  /// Checkpoint walk: the VC bindings (mutable via set_vc during fault
  /// recovery) and the demotion constants.
  void snap(snapshot::Walker& w);

 private:
  /// Inline: select evaluates it for every eligible head.
  [[nodiscard]] Priority priority_of(std::uint32_t vc, bool demoted,
                                     Cycle arrived, Cycle now) const {
    MMR_ASSERT(vc < qos_of_vc_.size());
    MMR_ASSERT(arrived <= now);
    const std::uint64_t age_router_cycles = (now - arrived) * phits_per_flit_;
    // Policed-excess flits compete with a minimal best-effort claim instead
    // of their connection's reserved one (demote policy).
    return priority_(demoted ? demoted_qos_ : qos_of_vc_[vc],
                     age_router_cycles);
  }

  std::uint32_t input_port_;
  std::uint32_t levels_;
  PriorityFunction priority_;
  std::uint32_t phits_per_flit_;
  std::vector<std::uint32_t> output_of_vc_;
  std::vector<QosParams> qos_of_vc_;
  QosParams demoted_qos_{1, 1.0};
};

}  // namespace mmr
