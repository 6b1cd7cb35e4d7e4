#include "mmr/router/router.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>

#include "mmr/arbiter/verify.hpp"
#include "mmr/mmu/spec.hpp"
#include "mmr/perf/probe.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {

MmrRouter::MmrRouter(const SimConfig& config, const ConnectionTable& table,
                     Rng rng, const QdSpec& qd)
    : ports_(config.ports),
      qd_(qd),
      eligibility_(config.ports, config.vcs_per_link),
      arbiter_(make_arbiter(config.arbiter, config.ports, rng.fork(0xA9B1))),
      crossbar_(config.ports),
      candidates_(config.ports, config.candidate_levels),
      matching_(config.ports) {
  config.validate();
  MMR_ASSERT(table.ports() == ports_);

  const TimeBase time_base = config.time_base();
  const RoundAccounting rounds(config.flit_cycles_per_round(), time_base);
  // Demoted (policed-excess) flits claim one slot at the IAT a one-slot
  // reservation would have — the weakest admitted footprint.
  QosParams demoted;
  demoted.slots_per_round = 1;
  demoted.iat_router_cycles =
      rounds.iat_router_cycles(rounds.bandwidth_for_slots(1));

  // One loop for every discipline: each input gets its buffer, keyed by VC
  // or by output, and a link scheduler carrying the VC -> output routing
  // and the QoS constants.
  const std::uint32_t keys =
      qd_.discipline == QueueDiscipline::kVc ? config.vcs_per_link : ports_;
  const std::uint64_t slots = buffer_slots(config);
  MMR_ASSERT(slots <= kMaxRouterBufferSlots / ports_);
  buffers_.reserve(ports_);
  schedulers_.reserve(ports_);
  for (std::uint32_t port = 0; port < ports_; ++port) {
    buffers_.emplace_back(keys, config.vcs_per_link,
                          config.buffer_flits_per_vc,
                          static_cast<std::uint32_t>(slots));

    std::vector<std::uint32_t> output_of_vc(config.vcs_per_link, 0);
    std::vector<QosParams> qos_of_vc(config.vcs_per_link);
    for (ConnectionId id : table.on_input_link(port)) {
      const ConnectionDescriptor& c = table.get(id);
      output_of_vc[c.vc] = c.output_link;
      QosParams qos;
      // Best-effort connections reserve nothing; they bias from the minimum
      // initial priority, so QoS traffic dominates them until they age.
      qos.slots_per_round = std::max<std::uint32_t>(1, c.slots_per_round);
      qos.iat_router_cycles =
          rounds.iat_router_cycles(std::max(c.mean_bandwidth_bps, 1.0));
      qos_of_vc[c.vc] = qos;
    }
    schedulers_.emplace_back(port, config.candidate_levels,
                             PriorityFunction(config.priority_scheme),
                             time_base.phits_per_flit(),
                             std::move(output_of_vc), std::move(qos_of_vc));
    schedulers_.back().set_demoted_qos(demoted);
  }
  if (qd_.discipline == QueueDiscipline::kCicq) {
    cicq_ = std::make_unique<CicqFabric>(ports_, config.vcs_per_link, qd_,
                                         config.credit_latency);
  }
}

std::uint64_t MmrRouter::buffer_slots(const SimConfig& config) {
  const bool shared = !config.flow_spec.empty() &&
                      mmu::MmuSpec::parse(config.flow_spec).mode ==
                          mmu::FlowMode::kShared;
  return shared ? config.buffer_flits_per_vc
                : std::uint64_t{config.vcs_per_link} *
                      config.buffer_flits_per_vc;
}

bool MmrRouter::can_accept(std::uint32_t input, std::uint32_t vc) const {
  MMR_ASSERT(input < ports_);
  return buffers_[input].can_accept(vc);
}

void MmrRouter::accept(std::uint32_t input, std::uint32_t vc, const Flit& flit,
                       Cycle now) {
  MMR_ASSERT(input < ports_);
  buffers_[input].push(key_of(input, vc), vc, flit, now);
  ++accepted_;
  MMR_TRACE_EVENT(
      trace::vc_enqueue_event(now, input, vc, flit.connection, flit.seq));
}

void MmrRouter::step(Cycle now, bool measure,
                     std::vector<Departure>& departures) {
  if (qd_.discipline == QueueDiscipline::kCicq) {
    step_cicq(now, measure, departures);
    return;
  }
  // Candidates are queue heads, per VC under kVc and per output under kVoq;
  // either way a candidate names its VC and output, and a grant dequeues
  // exactly the head it described.

  // Link scheduling: every input port offers its top-L candidates.
  {
    MMR_PERF_SCOPE(perf::Phase::kLinkSchedule);
    candidates_.clear();
    for (std::uint32_t port = 0; port < ports_; ++port) {
      if (buffers_[port].total_flits() == 0) continue;
      schedulers_[port].select(buffers_[port], now, candidates_, &eligibility_);
    }
  }

  // Switch scheduling, into the recycled matching buffer.
  {
    MMR_PERF_SCOPE(perf::Phase::kArbitration);
    arbiter_->arbitrate_into(candidates_, matching_);
    const MatchingCheck check = check_matching(candidates_, matching_);
    MMR_ASSERT_MSG(check.valid, check.problem.c_str());
  }

  // Router-side grant/deny record for every offered candidate (the arbiter
  // additionally emits kGrantReason with its algorithm-specific detail).
  if (MMR_TRACE_ON()) {
    for (std::size_t index = 0; index < candidates_.size(); ++index) {
      const Candidate& c = candidates_.at(index);
      const bool granted = matching_.candidate_of(c.input) ==
                           static_cast<std::int32_t>(index);
      MMR_TRACE_EVENT(trace::grant_event(now, c.input, c.output, c.vc,
                                         c.level, c.priority, granted));
    }
  }

  // Synchronous crossbar transit of every matched head flit.
  MMR_PERF_SCOPE(perf::Phase::kCrossbar);
  crossbar_.apply(matching_, measure);
  for (std::uint32_t input = 0; input < ports_; ++input) {
    const std::int32_t cand_index = matching_.candidate_of(input);
    if (cand_index == -1) continue;
    const Candidate& granted =
        candidates_.at(static_cast<std::size_t>(cand_index));
    MMR_ASSERT(granted.input == input);
    Departure departure;
    departure.input = input;
    departure.output = granted.output;
    departure.vc = granted.vc;
    const InputBuffer::Slot slot =
        buffers_[input].pop(key_of(input, granted.vc));
    MMR_ASSERT_MSG(slot.vc == granted.vc,
                   "granted head changed between select and grant");
    departure.flit = slot.flit;
    MMR_ASSERT_MSG(departure.flit.connection != kInvalidConnection,
                   "granted head held no real flit");
    MMR_TRACE_EVENT(trace::xbar_event(now, input, departure.output,
                                      departure.vc, departure.flit.connection,
                                      departure.flit.seq));
    if (departures.size() == departures.capacity())
      MMR_PERF_COUNT(perf::Counter::kDepartureRealloc, 1);
    departures.push_back(departure);
    ++departed_;
  }
}

void MmrRouter::step_cicq(Cycle now, bool measure,
                          std::vector<Departure>& departures) {
  // Distributed CICQ cycle: mature credit returns, drain the output stage
  // (registered crosspoint buffers — only start-of-cycle occupants leave),
  // then refill from the VOQs and run stabilization bookkeeping.
  cicq_->tick(now);

  {
    MMR_PERF_SCOPE(perf::Phase::kArbitration);
    drained_scratch_.clear();
    cicq_->drain_outputs(now, drained_scratch_, xp_pick_scratch_,
                         eligibility_);
  }

  {
    MMR_PERF_SCOPE(perf::Phase::kCrossbar);
    crossbar_.apply_outputs(xp_pick_scratch_, measure);
    for (const CicqFabric::Drained& drained : drained_scratch_) {
      Departure departure;
      departure.input = drained.input;
      departure.output = drained.output;
      departure.vc = drained.vc;
      departure.flit = drained.flit;
      MMR_TRACE_EVENT(trace::xbar_event(now, departure.input, departure.output,
                                        departure.vc,
                                        departure.flit.connection,
                                        departure.flit.seq));
      if (departures.size() == departures.capacity())
        MMR_PERF_COUNT(perf::Counter::kDepartureRealloc, 1);
      departures.push_back(departure);
      ++departed_;
    }
  }

  {
    MMR_PERF_SCOPE(perf::Phase::kLinkSchedule);
    cicq_->fill_crosspoints(now, buffers_);
    cicq_->update_stabilization(buffers_);
  }
}

void MmrRouter::install_vc(std::uint32_t input, std::uint32_t vc,
                           std::uint32_t output, QosParams qos) {
  MMR_ASSERT(input < ports_);
  MMR_ASSERT(output < ports_);
  schedulers_[input].set_vc(vc, output, qos);
}

std::vector<Flit> MmrRouter::drain_vc(std::uint32_t input, std::uint32_t vc,
                                      Cycle now) {
  MMR_ASSERT(input < ports_);
  std::vector<Flit> drained;
  buffers_[input].drain(key_of(input, vc), vc, drained);
  if (cicq_) cicq_->drain_vc(input, vc, now, drained);
  drained_ += drained.size();
  return drained;
}

const InputBuffer& MmrRouter::buffer(std::uint32_t input) const {
  MMR_ASSERT(input < ports_);
  return buffers_[input];
}

std::uint32_t MmrRouter::vc_occupancy(std::uint32_t input,
                                      std::uint32_t vc) const {
  MMR_ASSERT(input < ports_);
  return buffers_[input].vc_occupancy(vc) +
         (cicq_ != nullptr ? cicq_->vc_occupancy(input, vc) : 0);
}

void MmrRouter::check_invariants() const {
  std::uint64_t buffered = 0;
  for (std::uint32_t input = 0; input < ports_; ++input) {
    const InputBuffer& buffer = buffers_[input];
    buffer.check_invariants();
    buffered += buffer.total_flits();
    // A grant pops key_of(the granted VC): every head must sit there.
    buffer.for_each_occupied([&](std::uint32_t key) {
      MMR_ASSERT(key_of(input, buffer.head(key).vc) == key);
    });
  }
  if (cicq_ != nullptr) {
    cicq_->check_invariants();
    buffered += cicq_->total_flits();
  }
  MMR_ASSERT(buffered == flits_buffered());
}

void MmrRouter::snap(snapshot::Walker& w) {
  // Buffers, then the VC bindings every discipline routes by, then the
  // crosspoints.  The qd= override is folded into config_digest, so a
  // snapshot is never resumed under the other keying.
  for (InputBuffer& buffer : buffers_) buffer.snap(w);
  for (LinkScheduler& scheduler : schedulers_) scheduler.snap(w);
  if (cicq_ != nullptr) cicq_->snap(w);
  arbiter_->snap(w);
  crossbar_.snap(w);
  snapshot::value(w, accepted_);
  snapshot::value(w, departed_);
  snapshot::value(w, drained_);
}

}  // namespace mmr
