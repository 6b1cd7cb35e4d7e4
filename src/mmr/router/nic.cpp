#include "mmr/router/nic.hpp"

#include <bit>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/bits.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

Nic::Nic(std::uint32_t vcs, std::uint32_t credits_per_vc, Cycle credit_latency)
    : queues_(vcs),
      backlogged_(bit_words(vcs), 0),
      credits_(vcs, credits_per_vc, credit_latency) {
  MMR_ASSERT(vcs > 0);
}

void Nic::deposit(std::uint32_t vc, const Flit& flit) {
  MMR_ASSERT(vc < vcs());
  if (queues_[vc].empty()) bits_set(backlogged_.data(), vc);
  queues_[vc].push_back(flit);
  ++total_queued_;
}

std::optional<LinkTransfer> Nic::select_and_send(Cycle now) {
  credits_.tick(now);
  if (paused_) return std::nullopt;
  // Demand-driven round-robin: the first non-empty VC at or after the
  // cursor, cyclically, that also holds a credit.
  const std::int32_t pick = bits_find_cyclic(
      backlogged_.data(), static_cast<std::uint32_t>(backlogged_.size()),
      rr_next_, [this](std::uint32_t vc) { return credits_.has_credit(vc); });
  if (pick < 0) return std::nullopt;
  const auto vc = static_cast<std::uint32_t>(pick);
  credits_.consume(vc);
  LinkTransfer transfer;
  transfer.flit = queues_[vc].front();
  transfer.vc = vc;
  queues_[vc].pop_front();
  if (queues_[vc].empty()) bits_clear(backlogged_.data(), vc);
  ++total_sent_;
  // Resume after the connection just served.
  rr_next_ = vc + 1 == vcs() ? 0 : vc + 1;
  return transfer;
}

void Nic::move_queue(std::uint32_t from_vc, std::uint32_t to_vc) {
  MMR_ASSERT(from_vc < vcs());
  MMR_ASSERT(to_vc < vcs());
  if (from_vc == to_vc || queues_[from_vc].empty()) return;
  const Ring<Flit>& from = queues_[from_vc];
  for (std::size_t k = 0; k < from.size(); ++k)
    queues_[to_vc].push_back(from[k]);
  queues_[from_vc].clear();
  bits_clear(backlogged_.data(), from_vc);
  bits_set(backlogged_.data(), to_vc);
}

std::size_t Nic::queued(std::uint32_t vc) const {
  MMR_ASSERT(vc < vcs());
  return queues_[vc].size();
}

void Nic::check_invariants() const {
  std::uint64_t counted = 0;
  for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
    counted += queues_[vc].size();
    MMR_ASSERT_MSG(bits_test(backlogged_.data(), vc) != queues_[vc].empty(),
                   "NIC non-empty bitmap disagrees with a queue");
  }
  // No bit set past the last VC.
  const std::uint32_t tail = vcs() % kBitsPerWord;
  if (tail != 0) MMR_ASSERT(backlogged_.back() >> tail == 0);
  MMR_ASSERT(counted == total_queued_ - total_sent_);
  credits_.check_invariants();
}

void Nic::snap(snapshot::Walker& w) {
  snapshot::walk_vector(w, queues_, [](snapshot::Walker& v, Ring<Flit>& q) {
    snapshot::walk_ring(v, q, snap_flit);
  });
  if (w.loading()) {
    if (vcs() != credits_.vcs())
      throw snapshot::SnapshotError("NIC snapshot: VC count mismatch");
    for (std::uint32_t vc = 0; vc < vcs(); ++vc) {
      if (queues_[vc].empty()) {
        bits_clear(backlogged_.data(), vc);
      } else {
        bits_set(backlogged_.data(), vc);
      }
    }
  }
  credits_.snap(w);
  snapshot::value(w, rr_next_);
  if (rr_next_ >= vcs())
    throw snapshot::SnapshotError("NIC snapshot: cursor out of range");
  snapshot::value(w, total_queued_);
  snapshot::value(w, total_sent_);
  // The checkpoint layout carries the number of non-empty queues; a load
  // must agree with the queues it just read.
  std::uint32_t backlogged_vcs = 0;
  for (const std::uint64_t word : backlogged_)
    backlogged_vcs += static_cast<std::uint32_t>(std::popcount(word));
  std::uint32_t walked = backlogged_vcs;
  snapshot::value(w, walked);
  if (walked != backlogged_vcs)
    throw snapshot::SnapshotError("NIC snapshot: non-empty count mismatch");
  snapshot::value(w, paused_);
}

}  // namespace mmr
