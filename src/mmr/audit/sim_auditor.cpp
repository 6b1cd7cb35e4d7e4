#include "mmr/audit/sim_auditor.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>

#include "mmr/mmu/mmu.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr::audit {

std::uint32_t credit_accounted_slots(const CreditManager& credits,
                                     const LinkPipeline& pipe,
                                     std::uint32_t buffered,
                                     std::uint32_t vc) {
  return credits.credits(vc) + credits.pending_for(vc) +
         pipe.in_flight_on_vc(vc) + buffered;
}

SimAuditor::SimAuditor(const SimConfig& config, std::vector<Feed> feeds)
    : ports_(config.ports),
      vcs_(config.vcs_per_link),
      period_(config.audit_every),
      feeds_(std::move(feeds)),
      tails_(static_cast<std::size_t>(config.ports) * config.vcs_per_link),
      input_used_(config.ports, 0),
      output_used_(config.ports, 0) {
  MMR_ASSERT(period_ >= 1);
}

void SimAuditor::on_departures(
    Cycle now, const MmrRouter& router,
    const std::vector<MmrRouter::Departure>& departures) {
  ++cycles_;

  // The crossbar forwards at most one flit per output port per scheduling
  // cycle under every discipline.  The one-per-input law only holds for the
  // matching-based disciplines: CICQ crosspoint buffers decouple the stages,
  // so one input's flits may legitimately leave several outputs in a cycle.
  const bool matching_based =
      router.queue_discipline() != QueueDiscipline::kCicq;
  std::fill(input_used_.begin(), input_used_.end(), std::uint8_t{0});
  std::fill(output_used_.begin(), output_used_.end(), std::uint8_t{0});
  for (const MmrRouter::Departure& d : departures) {
    MMR_ASSERT(d.input < ports_ && d.output < ports_ && d.vc < vcs_);
    MMR_ASSERT_MSG(!matching_based || !input_used_[d.input],
                   "audit: two departures from one input in one cycle");
    MMR_ASSERT_MSG(!output_used_[d.output],
                   "audit: two departures onto one output in one cycle");
    input_used_[d.input] = 1;
    output_used_[d.output] = 1;

    // Per-VC FIFO order: within a VC, one connection's flits depart in
    // strictly increasing sequence order and never after flits generated
    // in this cycle's future.  A connection change on the VC (fault-layer
    // re-admission) legitimately restarts the stream.
    MMR_ASSERT_MSG(d.flit.generated_at <= now,
                   "audit: flit departed before it was generated");
    VcTail& tail = tails_[static_cast<std::size_t>(d.input) * vcs_ + d.vc];
    if (tail.connection == d.flit.connection) {
      MMR_ASSERT_MSG(d.flit.seq > tail.seq,
                     "audit: per-VC FIFO order broken (sequence regressed)");
    }
    tail.connection = d.flit.connection;
    tail.seq = d.flit.seq;
  }

  // Departed-count reconciliation: the router's lifetime counter must
  // advance by exactly the departures it reported this cycle.
  departed_seen_ += departures.size();
  MMR_ASSERT_MSG(router.flits_departed() == departed_seen_,
                 "audit: router departed-count disagrees with the "
                 "departures it reported");
}

void SimAuditor::sweep(Cycle now, const MmrRouter& router,
                       const mmu::SharedBufferMmu* mmu, bool exact) {
  MMR_ASSERT(feeds_.size() == ports_);
  std::uint64_t buffered = 0;
  for (std::uint32_t port = 0; port < ports_; ++port) {
    const Feed& feed = feeds_[port];
    const std::uint32_t capacity = feed.credits->capacity_per_vc();
    std::uint64_t queued = 0;
    for (std::uint32_t vc = 0; vc < vcs_; ++vc) {
      // Credit conservation: every VC buffer slot is an available credit, a
      // credit travelling back, a flit on the wire, or a flit the router
      // holds for the VC (VC FIFO, VOQs, or crosspoints, per discipline) —
      // on host links and inter-router channels alike.
      const std::uint32_t held = router.vc_occupancy(port, vc);
      const std::uint32_t accounted =
          credit_accounted_slots(*feed.credits, *feed.pipe, held, vc);
      MMR_ASSERT_MSG(exact ? accounted == capacity : accounted <= capacity,
                     "audit: credit conservation violated");
      buffered += held;
      if (feed.nic != nullptr) queued += feed.nic->queued(vc);
    }
    // NIC bandwidth accounting: everything deposited either left on the
    // link or is still queued.
    MMR_ASSERT_MSG(feed.nic == nullptr ||
                       feed.nic->total_queued() ==
                           feed.nic->total_sent() + queued,
                   "audit: NIC deposited/sent/queued accounting broken");
  }
  // Router bandwidth accounting: lifetime accepted - departed - drained
  // must equal what the input buffers (plus crosspoints) hold right now.
  MMR_ASSERT_MSG(router.flits_buffered() == buffered,
                 "audit: router flit accounting disagrees with its buffers");

  // MMU pool conservation (flow=shared runs): reserved + shared + headroom
  // charges must balance to the flit against the buffered occupancy, and
  // the MMU's own books must be internally consistent.
  if (mmu != nullptr) {
    mmu->check_invariants();
    MMR_ASSERT_MSG(mmu->occupancy() == buffered,
                   "audit: mmu pool charges disagree with buffered flits");
  }
  ++sweeps_;
  MMR_TRACE_EVENT(trace::audit_sweep_event(now, sweeps_));
}

void SimAuditor::snap(mmr::snapshot::Walker& w) {
  namespace snap = mmr::snapshot;
  snap::walk_vector(w, tails_, [](snap::Walker& v, VcTail& tail) {
    snap::value(v, tail.connection);
    snap::value(v, tail.seq);
  });
  snap::value(w, departed_seen_);
  snap::value(w, cycles_);
  snap::value(w, sweeps_);
}

}  // namespace mmr::audit
