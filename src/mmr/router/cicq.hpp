// Combined input-crosspoint queueing fabric (`qd=cicq`, after Gunther,
// PAPERS.md): a small buffer at every (input, output) crosspoint decouples
// the input stage from the output stage, replacing centralized switch
// arbitration with two independent round-robin schedulers —
//
//   * the output stage drains at most one crosspoint per output per cycle
//     (round-robin over inputs with a buffered flit), and
//   * the input stage moves at most one VOQ head per input per cycle into
//     its crosspoint (round-robin over outputs with work and credit).
//
// Crosspoint space is credit-controlled per input: the base regime exposes a
// single credit per crosspoint, so a burst to one output serializes on the
// credit round-trip (send, wait for the drain + return latency, send again)
// and collapses throughput to 1/(1 + RTT) while work piles up in the VOQ —
// Gunther's instability.  The burst-stabilization protocol (`stab:1`)
// unlocks the crosspoint's full depth when its VOQ backs up past the burst
// threshold, pipelining the round-trip; the parked credits are reclaimed
// once the burst fully drains.
#pragma once

#include <deque>
#include <vector>

#include "mmr/router/credits.hpp"
#include "mmr/router/input_buffer.hpp"
#include "mmr/router/link_scheduler.hpp"
#include "mmr/router/qd_spec.hpp"
#include "mmr/sim/time.hpp"

namespace mmr {

namespace snapshot {
class Walker;
}

class CicqFabric {
 public:
  CicqFabric(std::uint32_t ports, std::uint32_t vcs, const QdSpec& spec,
             Cycle credit_latency);

  /// A flit the output stage drained this cycle (becomes a Departure).
  struct Drained {
    std::uint32_t input = 0;
    std::uint32_t output = 0;
    std::uint32_t vc = 0;
    Flit flit;
  };

  /// Applies matured credit returns.  Call once at the top of the cycle.
  void tick(Cycle now);

  /// Output stage.  Crosspoints behave as registered buffers: only flits
  /// already present at the start of the cycle are drainable, which is why
  /// this runs before fill_crosspoints().  Appends one Drained per served
  /// output (ascending output order) and records the per-output input pick
  /// in `input_of_output` (-1 = idle) for crossbar statistics.  A crosspoint
  /// whose head `eligible` refuses (its next hop has no credit, or the
  /// output's channel is paused or down) waits; the gate sits here, not at
  /// the input stage, because a flit's downstream credit is only spent when
  /// it leaves.
  void drain_outputs(Cycle now, std::vector<Drained>& out,
                     std::vector<std::int32_t>& input_of_output,
                     const EligibilityMask& eligible);

  /// Input stage: per input, round-robin over outputs with a non-empty VOQ
  /// and an available crosspoint credit; transfers at most one head flit.
  /// `voqs` are the inputs' buffers, keyed by output.
  void fill_crosspoints(Cycle now, std::vector<InputBuffer>& voqs);

  /// Burst-stabilization bookkeeping (no-op unless `stab:1` and the
  /// crosspoints are deeper than one flit): unlock parked credits when a
  /// VOQ passes the threshold, reclaim them once the burst drains dry.
  void update_stabilization(const std::vector<InputBuffer>& voqs);

  [[nodiscard]] std::uint32_t ports() const { return ports_; }
  [[nodiscard]] const QdSpec& spec() const { return spec_; }
  [[nodiscard]] std::uint32_t xp_occupancy(std::uint32_t input,
                                           std::uint32_t output) const;
  /// Flits of (input, vc) currently sitting in crosspoint buffers.
  [[nodiscard]] std::uint32_t vc_occupancy(std::uint32_t input,
                                           std::uint32_t vc) const;
  /// Fault teardown: discards the crosspoint-resident flits of (input, vc),
  /// returning their crosspoint credits and appending them to `out`.
  void drain_vc(std::uint32_t input, std::uint32_t vc, Cycle now,
                std::vector<Flit>& out);
  [[nodiscard]] std::uint64_t total_flits() const { return total_; }
  [[nodiscard]] const CreditManager& credits(std::uint32_t input) const;

  // Counters for metrics (cumulative; the measurement window is handled by
  // the collector diffing at warmup end).
  [[nodiscard]] std::uint64_t transfers() const { return transfers_; }
  [[nodiscard]] std::uint64_t credit_stalls() const { return credit_stalls_; }
  [[nodiscard]] std::uint64_t burst_activations() const {
    return burst_activations_;
  }
  [[nodiscard]] std::uint64_t burst_deactivations() const {
    return burst_deactivations_;
  }

  void check_invariants() const;

  /// Checkpoint walk: crosspoint FIFOs, per-VC residency counts, credit
  /// managers, both round-robin pointer sets, burst flags, and counters.
  void snap(snapshot::Walker& w);

 private:
  [[nodiscard]] std::size_t xp_index(std::uint32_t input,
                                     std::uint32_t output) const {
    return static_cast<std::size_t>(input) * ports_ + output;
  }

  std::uint32_t ports_;
  QdSpec spec_;
  std::vector<std::deque<InputBuffer::Slot>> xp_;  ///< (input, output) FIFOs
  std::vector<std::uint32_t> xp_vc_count_;  ///< (input, vc) residency
  std::vector<CreditManager> credits_;      ///< per input, over outputs
  std::vector<std::uint32_t> input_ptr_;   ///< RR: next output per input
  std::vector<std::uint32_t> output_ptr_;  ///< RR: next input per output
  std::vector<std::uint8_t> burst_;        ///< (input, output) burst regime
  std::uint64_t total_ = 0;
  std::uint64_t transfers_ = 0;
  std::uint64_t credit_stalls_ = 0;
  std::uint64_t burst_activations_ = 0;
  std::uint64_t burst_deactivations_ = 0;
};

}  // namespace mmr
