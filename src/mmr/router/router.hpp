// The Multimedia Router (Figure 1): per physical input link an input buffer
// plus Link Scheduler, a multiplexed crossbar with as many ports as physical
// channels, and a pluggable Switch Scheduler.  One call to step() performs
// one scheduling cycle: candidate selection on every input link, switch
// arbitration, and synchronous flit forwarding through the crossbar.
//
// The queue-discipline axis (`qd=`, mmr/router/qd_spec.hpp) swaps the input
// buffering and scheduling stage while keeping the same external contract
// (accept / step / Departure / credit accounting):
//   * kVc (default) — per-VC FIFOs (Virtual Channel Memory);
//   * kVoq — per-input virtual output queues;
//   * kCicq — VOQs + per-crosspoint buffers with independent RR input and
//     output schedulers (no central arbiter; see mmr/router/cicq.hpp).
// Every discipline buffers in one InputBuffer per input, keyed by VC under
// kVc and by output otherwise.  One LinkScheduler per input owns the VC
// bindings (output port, QoS constants) that accept() routes by and the
// checkpoint walks; under kVc and kVoq it also selects the top-L queue
// heads for the same switch arbiter.
#pragma once

#include <memory>
#include <vector>

#include "mmr/arbiter/factory.hpp"
#include "mmr/qos/connection.hpp"
#include "mmr/qos/rounds.hpp"
#include "mmr/router/cicq.hpp"
#include "mmr/router/crossbar.hpp"
#include "mmr/router/input_buffer.hpp"
#include "mmr/router/link_scheduler.hpp"
#include "mmr/router/qd_spec.hpp"
#include "mmr/sim/config.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

/// Largest number of input buffer slots one router may hold: every port's
/// slot pool is allocated up front, so validate() (core/simulation.hpp)
/// rejects geometries whose buffers alone would not fit in memory.
inline constexpr std::uint64_t kMaxRouterBufferSlots = std::uint64_t{1} << 24;

class MmrRouter {
 public:
  MmrRouter(const SimConfig& config, const ConnectionTable& table, Rng rng)
      : MmrRouter(config, table, rng, QdSpec::parse(config.qd_spec)) {}
  /// With `config.qd_spec` already parsed as `qd`.
  MmrRouter(const SimConfig& config, const ConnectionTable& table, Rng rng,
            const QdSpec& qd);

  /// Slots of each input buffer's pool: the most flits one port can be
  /// admitted.  That is vcs x buffer_flits, or under `flow=shared` the
  /// MMU's one per-port allowance, which validate() (RunSpecs::built) made
  /// every VC's buffer_flits.
  [[nodiscard]] static std::uint64_t buffer_slots(const SimConfig& config);

  /// A flit leaving on an output link this cycle.
  struct Departure {
    std::uint32_t input = 0;
    std::uint32_t output = 0;
    std::uint32_t vc = 0;
    Flit flit;
  };

  [[nodiscard]] std::uint32_t ports() const { return ports_; }
  [[nodiscard]] QueueDiscipline queue_discipline() const {
    return qd_.discipline;
  }

  [[nodiscard]] bool can_accept(std::uint32_t input, std::uint32_t vc) const;
  void accept(std::uint32_t input, std::uint32_t vc, const Flit& flit,
              Cycle now);

  /// Which heads may compete for the crossbar: multi-router networks keep
  /// it current with downstream credit, pauses and faults; untouched, every
  /// occupied VC is eligible.
  [[nodiscard]] EligibilityMask& eligibility() { return eligibility_; }
  [[nodiscard]] const EligibilityMask& eligibility() const {
    return eligibility_;
  }

  /// One scheduling cycle.  Departures leave their output links during this
  /// cycle; `measure` gates crossbar statistics (warmup exclusion).
  void step(Cycle now, bool measure, std::vector<Departure>& departures);

  /// Fault recovery: binds (input, vc) to a re-admitted connection's output
  /// port and QoS constants (the runtime equivalent of the setup-time
  /// ConnectionTable walk in the constructor).
  void install_vc(std::uint32_t input, std::uint32_t vc, std::uint32_t output,
                  QosParams qos);

  /// Fault teardown: discards every flit buffered on (input, vc), wherever
  /// the discipline holds it, and returns them; the caller settles the
  /// upstream credits and any buffer-pool charge.
  std::vector<Flit> drain_vc(std::uint32_t input, std::uint32_t vc, Cycle now);

  [[nodiscard]] const Crossbar& crossbar() const { return crossbar_; }
  /// Input buffer of `input`: keyed by VC under qd=vc, by output under
  /// qd=voq / qd=cicq.
  [[nodiscard]] const InputBuffer& buffer(std::uint32_t input) const;
  /// Crosspoint fabric; non-null only under qd=cicq.
  [[nodiscard]] const CicqFabric* cicq() const { return cicq_.get(); }
  /// Flits of (input, vc) currently inside the router, whatever the
  /// discipline buffers them in (VC FIFO, VOQs, crosspoints).  This is the
  /// quantity the NIC credit loop and the conservation audit balance.
  [[nodiscard]] std::uint32_t vc_occupancy(std::uint32_t input,
                                           std::uint32_t vc) const;
  [[nodiscard]] const SwitchArbiter& arbiter() const { return *arbiter_; }
  [[nodiscard]] std::uint64_t flits_accepted() const { return accepted_; }
  [[nodiscard]] std::uint64_t flits_departed() const { return departed_; }
  /// Flits discarded by fault teardown (drain_vc).
  [[nodiscard]] std::uint64_t flits_drained() const { return drained_; }
  /// Flits currently buffered inside the router.
  [[nodiscard]] std::uint64_t flits_buffered() const {
    return accepted_ - departed_ - drained_;
  }

  void check_invariants() const;

  /// Checkpoint walk: input buffers, link schedulers, crosspoints, arbiter
  /// internals, crossbar, flit counters.
  void snap(snapshot::Walker& w);

 private:
  void step_cicq(Cycle now, bool measure, std::vector<Departure>& departures);
  /// The FIFO of `input` that holds `vc`'s flits: the VC itself under qd=vc,
  /// its bound output under qd=voq / qd=cicq.
  [[nodiscard]] std::uint32_t key_of(std::uint32_t input,
                                     std::uint32_t vc) const {
    return qd_.discipline == QueueDiscipline::kVc
               ? vc
               : schedulers_[input].output_of(vc);
  }

  std::uint32_t ports_;
  QdSpec qd_;
  EligibilityMask eligibility_;
  std::vector<InputBuffer> buffers_;       ///< one per input
  std::vector<LinkScheduler> schedulers_;  ///< one per input
  std::unique_ptr<CicqFabric> cicq_;        ///< kCicq only
  std::unique_ptr<SwitchArbiter> arbiter_;
  Crossbar crossbar_;
  CandidateSet candidates_;
  Matching matching_;  ///< reused across cycles (allocation-free steady state)
  std::vector<CicqFabric::Drained> drained_scratch_;
  std::vector<std::int32_t> xp_pick_scratch_;
  std::uint64_t accepted_ = 0;
  std::uint64_t departed_ = 0;
  std::uint64_t drained_ = 0;
};

}  // namespace mmr
