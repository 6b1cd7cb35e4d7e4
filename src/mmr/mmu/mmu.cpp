#include "mmr/mmu/mmu.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>

#include "mmr/sim/assert.hpp"

namespace mmr::mmu {

namespace {

constexpr std::size_t kClasses = 3;  ///< TrafficClass cardinality

constexpr std::size_t cls_index(TrafficClass cls) {
  return static_cast<std::size_t>(cls);
}

}  // namespace

SharedBufferMmu::SharedBufferMmu(const MmuSpec& spec, const SimConfig& config,
                                 std::uint32_t router)
    : spec_(spec.resolve(config)),
      ports_(config.ports),
      per_port_class_(static_cast<std::size_t>(config.ports) * kClasses),
      headroom_used_(config.ports, 0),
      paused_(config.ports, 0),
      pause_started_(config.ports, 0),
      // Dedicated stream: mark draws must never perturb workload generation.
      mark_rng_(router == 0 ? Rng(config.seed, 0xECC5)
                            : Rng(config.seed, 0xECC5).fork(router)) {}

SharedBufferMmu::PortClass& SharedBufferMmu::state(std::uint32_t port,
                                                   TrafficClass cls) {
  MMR_ASSERT(port < ports_);
  return per_port_class_[static_cast<std::size_t>(port) * kClasses +
                         cls_index(cls)];
}

const SharedBufferMmu::PortClass& SharedBufferMmu::state(
    std::uint32_t port, TrafficClass cls) const {
  MMR_ASSERT(port < ports_);
  return per_port_class_[static_cast<std::size_t>(port) * kClasses +
                         cls_index(cls)];
}

std::uint64_t SharedBufferMmu::port_usage(std::uint32_t port) const {
  MMR_ASSERT(port < ports_);
  std::uint64_t usage = headroom_used_[port];
  for (std::size_t c = 0; c < kClasses; ++c) {
    const PortClass& pc =
        per_port_class_[static_cast<std::size_t>(port) * kClasses + c];
    usage += pc.reserved_used + pc.shared_used;
  }
  return usage;
}

std::uint32_t SharedBufferMmu::headroom_used(std::uint32_t port) const {
  MMR_ASSERT(port < ports_);
  return headroom_used_[port];
}

bool SharedBufferMmu::pause_wanted(std::uint32_t port) const {
  MMR_ASSERT(port < ports_);
  return paused_[port] != 0;
}

double SharedBufferMmu::mark_probability() const {
  if (shared_used_ <= spec_.ecn_kmin) return 0.0;
  if (shared_used_ >= spec_.ecn_kmax) return 1.0;
  const double span =
      static_cast<double>(spec_.ecn_kmax - spec_.ecn_kmin);
  return spec_.ecn_pmax *
         static_cast<double>(shared_used_ - spec_.ecn_kmin) / span;
}

AdmitResult SharedBufferMmu::admit(std::uint32_t port, TrafficClass cls,
                                   Cycle now) {
  PortClass& pc = state(port, cls);
  AdmitResult result;

  if (pc.reserved_used < spec_.reserved_per_class) {
    ++pc.reserved_used;
    ++admitted_reserved_;
    result.pool = AdmitPool::kReserved;
  } else {
    // Dynamic threshold: this (port, class) may keep taking shared slots
    // while its usage stays below alpha x the remaining free pool.
    const double a = lossless(cls) ? spec_.alpha : spec_.alpha_be;
    const double remaining =
        static_cast<double>(spec_.pool_flits - shared_used_);
    if (shared_used_ < spec_.pool_flits &&
        static_cast<double>(pc.shared_used) < a * remaining) {
      ++pc.shared_used;
      ++shared_used_;
      ++admitted_shared_;
      pool_highwater_ = std::max(pool_highwater_, shared_used_);
      result.pool = AdmitPool::kShared;
      if (spec_.ecn) {
        ++ecn_eligible_;
        const double p = mark_probability();
        if (p >= 1.0 || (p > 0.0 && mark_rng_.uniform_real() < p)) {
          ++ecn_marked_;
          result.marked = true;
        }
      }
    } else if (lossless(cls) &&
               headroom_used_[port] < spec_.headroom_flits) {
      ++headroom_used_[port];
      ++admitted_headroom_;
      headroom_highwater_ =
          std::max(headroom_highwater_, headroom_used_[port]);
      result.pool = AdmitPool::kHeadroom;
    } else {
      // Lossy traffic is simply over threshold; a lossless drop means the
      // headroom was undersized for the pause propagation latency.
      if (lossless(cls)) {
        ++drops_lossless_;
      } else {
        ++drops_lossy_;
      }
      return result;
    }
  }

  ++occupancy_;

  // Pause decision: crossing Xoff, or having to touch headroom at all
  // (emergency — the shared pool was exhausted by other ports before this
  // port's own usage reached Xoff).
  if (!paused_[port] && (port_usage(port) >= spec_.xoff_flits ||
                         result.pool == AdmitPool::kHeadroom)) {
    paused_[port] = 1;
    pause_started_[port] = now;
    ++paused_ports_;
    ++pause_events_;
    result.fire_xoff = true;
  }
  return result;
}

ReleaseResult SharedBufferMmu::release(std::uint32_t port, TrafficClass cls,
                                       Cycle now) {
  PortClass& pc = state(port, cls);
  MMR_ASSERT_MSG(occupancy_ > 0, "mmu release without a matching admit");

  if (pc.shared_used > 0) {
    --pc.shared_used;
    MMR_ASSERT(shared_used_ > 0);
    --shared_used_;
  } else if (pc.reserved_used > 0) {
    --pc.reserved_used;
  } else {
    // Both per-class pools are empty, so every remaining buffered flit of
    // this class at this port is headroom-accounted (see header proof).
    MMR_ASSERT_MSG(lossless(cls) && headroom_used_[port] > 0,
                   "mmu release found no pool charge to return");
    --headroom_used_[port];
  }
  --occupancy_;

  ReleaseResult result;
  if (paused_[port] && port_usage(port) <= spec_.xon_flits) {
    paused_[port] = 0;
    MMR_ASSERT(paused_ports_ > 0);
    --paused_ports_;
    const std::uint64_t duration = now - pause_started_[port];
    closed_pause_cycles_ += duration;
    max_closed_pause_ = std::max(max_closed_pause_, duration);
    ++resume_events_;
    result.fire_xon = true;
    result.paused_cycles = duration;
  }
  return result;
}

void SharedBufferMmu::on_cycle(Cycle now) {
  if (now % spec_.sample_every == 0)
    pool_occupancy_.add(static_cast<double>(shared_used_));
}

Cycle SharedBufferMmu::longest_open_pause(Cycle now) const {
  if (paused_ports_ == 0) return 0;
  Cycle longest = 0;
  for (std::uint32_t port = 0; port < ports_; ++port) {
    if (paused_[port])
      longest = std::max(longest, now - pause_started_[port]);
  }
  return longest;
}

std::uint64_t SharedBufferMmu::pause_cycles_total(Cycle now) const {
  std::uint64_t total = closed_pause_cycles_;
  for (std::uint32_t port = 0; port < ports_; ++port) {
    if (paused_[port]) total += now - pause_started_[port];
  }
  return total;
}

std::uint64_t SharedBufferMmu::pause_cycles_max(Cycle now) const {
  return std::max<std::uint64_t>(max_closed_pause_, longest_open_pause(now));
}

void SharedBufferMmu::check_invariants() const {
  std::uint64_t shared = 0;
  std::uint64_t total = 0;
  for (std::uint32_t port = 0; port < ports_; ++port) {
    MMR_ASSERT(headroom_used_[port] <= spec_.headroom_flits);
    total += headroom_used_[port];
    for (std::size_t c = 0; c < kClasses; ++c) {
      const PortClass& pc =
          per_port_class_[static_cast<std::size_t>(port) * kClasses + c];
      MMR_ASSERT(pc.reserved_used <= spec_.reserved_per_class);
      shared += pc.shared_used;
      total += pc.reserved_used + pc.shared_used;
    }
  }
  // Conservation: the pool books balance to the flit (reserved + shared +
  // headroom sums equal the admitted-minus-released occupancy).
  MMR_ASSERT_MSG(shared == shared_used_,
                 "mmu: per-class shared charges disagree with the pool total");
  MMR_ASSERT_MSG(shared_used_ <= spec_.pool_flits,
                 "mmu: shared pool overcommitted");
  MMR_ASSERT_MSG(total == occupancy_,
                 "mmu: pool charges disagree with buffered occupancy");
  std::uint32_t paused = 0;
  for (std::uint32_t port = 0; port < ports_; ++port)
    if (paused_[port]) ++paused;
  MMR_ASSERT(paused == paused_ports_);
}

EcnReactor::EcnReactor(std::size_t connections, const MmuSpec& resolved)
    : cut_(resolved.ecn_cut),
      floor_(resolved.ecn_floor),
      step_(resolved.ecn_step),
      window_(resolved.ecn_recover),
      factors_(connections, 1.0) {}

bool EcnReactor::on_mark(ConnectionId id) {
  MMR_ASSERT(id < factors_.size());
  const double next = std::max(floor_, factors_[id] * cut_);
  if (next == factors_[id]) return false;
  factors_[id] = next;
  ++cuts_;
  return true;
}

void EcnReactor::on_cycle(Cycle now, std::vector<ConnectionId>& changed) {
  if (window_ == 0 || now == 0 || now % window_ != 0) return;
  for (ConnectionId id = 0; id < factors_.size(); ++id) {
    if (factors_[id] >= 1.0) continue;
    factors_[id] = std::min(1.0, factors_[id] + step_);
    changed.push_back(id);
  }
}

double EcnReactor::factor(ConnectionId id) const {
  MMR_ASSERT(id < factors_.size());
  return factors_[id];
}

void SharedBufferMmu::snap(snapshot::Walker& w) {
  snapshot::walk_vector(w, per_port_class_,
                        [](snapshot::Walker& v, PortClass& pc) {
                          snapshot::value(v, pc.reserved_used);
                          snapshot::value(v, pc.shared_used);
                        });
  snapshot::walk_vector_pod(w, headroom_used_);
  snapshot::value(w, shared_used_);
  snapshot::value(w, occupancy_);
  snapshot::walk_vector_pod(w, paused_);
  snapshot::walk_vector_pod(w, pause_started_);
  snapshot::value(w, paused_ports_);
  mark_rng_.snap(w);
  snapshot::value(w, admitted_reserved_);
  snapshot::value(w, admitted_shared_);
  snapshot::value(w, admitted_headroom_);
  snapshot::value(w, drops_lossless_);
  snapshot::value(w, drops_lossy_);
  snapshot::value(w, pause_events_);
  snapshot::value(w, resume_events_);
  snapshot::value(w, closed_pause_cycles_);
  snapshot::value(w, max_closed_pause_);
  snapshot::value(w, headroom_highwater_);
  snapshot::value(w, pool_highwater_);
  snapshot::value(w, ecn_marked_);
  snapshot::value(w, ecn_eligible_);
  pool_occupancy_.snap(w);
}

void EcnReactor::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, factors_);
  snapshot::value(w, cuts_);
}

}  // namespace mmr::mmu
