#include "mmr/router/link.hpp"

#include <algorithm>
#include <cstdio>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

LinkPipeline::LinkPipeline(Cycle latency)
    : latency_(latency),
      in_flight_(static_cast<std::size_t>(std::min<Cycle>(latency, 63)) + 1) {}

void LinkPipeline::push(const LinkTransfer& transfer, Cycle now) {
  if (!(last_push_ == kNever || now > last_push_)) [[unlikely]] {
    char msg[128];
    std::snprintf(msg, sizeof msg,
                  "a link carries at most one flit per cycle: cycle %llu "
                  "pushed again after a push at cycle %llu",
                  static_cast<unsigned long long>(now),
                  static_cast<unsigned long long>(last_push_));
    detail::assert_fail("now > last_push_", __FILE__, __LINE__, msg);
  }
  MMR_ASSERT(in_flight_.empty() || in_flight_.back().arrives <= now + latency_);
  last_push_ = now;
  in_flight_.push_back({now + latency_, transfer});
  ++carried_;
}

void LinkPipeline::fail_pop(Cycle now) const {
  char msg[128];
  std::snprintf(msg, sizeof msg,
                "pop_due times must not decrease: cycle %llu after a pop "
                "at cycle %llu",
                static_cast<unsigned long long>(now),
                static_cast<unsigned long long>(last_pop_));
  detail::assert_fail("now >= last_pop_", __FILE__, __LINE__, msg);
}

std::uint32_t LinkPipeline::in_flight_on_vc(std::uint32_t vc) const {
  std::uint32_t count = 0;
  for (std::size_t k = 0; k < in_flight_.size(); ++k) {
    if (in_flight_[k].transfer.vc == vc) ++count;
  }
  return count;
}

std::uint32_t LinkPipeline::drain_vc(std::uint32_t vc) {
  return static_cast<std::uint32_t>(in_flight_.erase_if(
      [vc](const InFlight& f) { return f.transfer.vc == vc; }));
}

std::uint32_t LinkPipeline::drain_all() {
  const auto count = static_cast<std::uint32_t>(in_flight_.size());
  in_flight_.clear();
  return count;
}

void LinkPipeline::snap(snapshot::Walker& w) {
  snapshot::value(w, last_push_);
  snapshot::value(w, last_pop_);
  snapshot::walk_ring(w, in_flight_, [](snapshot::Walker& v, InFlight& f) {
    snapshot::value(v, f.arrives);
    snap_flit(v, f.transfer.flit);
    snapshot::value(v, f.transfer.vc);
  });
  snapshot::value(w, carried_);
}

}  // namespace mmr
