#include "mmr/router/credits.hpp"

#include <algorithm>

#include "mmr/snapshot/walker.hpp"

namespace mmr {

CreditManager::CreditManager(std::uint32_t vcs, std::uint32_t credits_per_vc,
                             Cycle return_latency)
    : credits_per_vc_(credits_per_vc),
      return_latency_(return_latency),
      credits_(vcs, credits_per_vc),
      // Steady state holds about one return per cycle of latency; teardown
      // flushes grow the ring once.
      pending_(static_cast<std::size_t>(std::min<Cycle>(return_latency, 62)) +
               2),
      pending_per_vc_(vcs, 0) {
  MMR_ASSERT(vcs > 0);
  MMR_ASSERT(credits_per_vc > 0);
}

void CreditManager::release(std::uint32_t vc, Cycle now) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(pending_.empty() || pending_.back().ready <= now + return_latency_,
                 "credit releases must be issued in time order");
  pending_.push_back({now + return_latency_, vc});
  ++pending_per_vc_[vc];
}

void CreditManager::apply_due(Cycle now,
                              std::vector<std::uint32_t>* refilled) {
  while (!pending_.empty() && pending_.front().ready <= now) {
    const std::uint32_t vc = pending_.front().vc;
    pending_.pop_front();
    --pending_per_vc_[vc];
    MMR_ASSERT_MSG(credits_[vc] < credits_per_vc_,
                   "credit returned beyond buffer capacity");
    if (credits_[vc]++ == 0 && refilled != nullptr) refilled->push_back(vc);
  }
}

void CreditManager::restore(std::uint32_t vc, std::uint32_t count) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(credits_[vc] + pending_for(vc) + count <= credits_per_vc_,
                 "restore would exceed the per-VC credit budget");
  credits_[vc] += count;
}

void CreditManager::reclaim(std::uint32_t vc, std::uint32_t count) {
  MMR_ASSERT(vc < vcs());
  MMR_ASSERT_MSG(credits_[vc] >= count,
                 "reclaim of credits that are not currently available");
  credits_[vc] -= count;
}

void CreditManager::check_invariants() const {
  // Conservation: credits held + credits travelling back never exceed the
  // per-VC budget (the remainder are slots occupied in the router).
  std::uint64_t counted = 0;
  for (std::uint32_t vc = 0; vc < credits_.size(); ++vc) {
    MMR_ASSERT(credits_[vc] + pending_per_vc_[vc] <= credits_per_vc_);
    counted += pending_per_vc_[vc];
  }
  MMR_ASSERT(counted == pending_.size());
}

void CreditManager::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, credits_);
  snapshot::walk_ring(w, pending_, [](snapshot::Walker& v, PendingReturn& p) {
    snapshot::value(v, p.ready);
    snapshot::value(v, p.vc);
  });
  if (!w.loading()) return;
  // The per-VC counts are derived from the ring, not walked.
  std::fill(pending_per_vc_.begin(), pending_per_vc_.end(), 0);
  for (std::size_t k = 0; k < pending_.size(); ++k) {
    if (pending_[k].vc >= vcs())
      throw snapshot::SnapshotError("credit return names no VC");
    ++pending_per_vc_[pending_[k].vc];
  }
}

}  // namespace mmr
