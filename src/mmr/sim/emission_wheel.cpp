#include "mmr/sim/emission_wheel.hpp"

#include <algorithm>
#include <functional>
#include <string>

#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

EmissionWheel::EmissionWheel(std::uint32_t sources)
    : head_(kSpan, kNone), next_(sources, kNone) {
  MMR_ASSERT(sources < kNone);
}

void EmissionWheel::schedule(std::uint32_t source, Cycle at) {
  MMR_ASSERT(source < next_.size());
  if (at == kNever) return;
  MMR_ASSERT_MSG(at >= cursor_, "emission scheduled in the past");
  if (at - cursor_ < kSpan) {
    link(source, at);
    return;
  }
  overflow_.emplace_back(at, source);
  std::push_heap(overflow_.begin(), overflow_.end(), std::greater<>());
}

void EmissionWheel::take(Cycle now) {
  MMR_ASSERT_MSG(now == cursor_ && drained(),
                 "the emission wheel takes every cycle once, in order");
  std::uint32_t& slot = head_[static_cast<std::size_t>(now & kMask)];
  due_.clear();
  popped_ = 0;
  for (std::uint32_t s = slot; s != kNone; s = next_[s]) due_.push_back(s);
  std::sort(due_.begin(), due_.end());
  slot = kNone;
  ++cursor_;
  // The ring now reaches cursor_ + kSpan - 1, the slot just emptied.
  while (!overflow_.empty() && overflow_.front().first - cursor_ < kSpan) {
    std::pop_heap(overflow_.begin(), overflow_.end(), std::greater<>());
    link(overflow_.back().second, overflow_.back().first);
    overflow_.pop_back();
  }
}

std::vector<EmissionWheel::Entry> EmissionWheel::pending() const {
  std::vector<Entry> entries;
  for (Cycle at = cursor_; at < cursor_ + kSpan; ++at)
    for (std::uint32_t s = head_[static_cast<std::size_t>(at & kMask)];
         s != kNone; s = next_[s])
      entries.emplace_back(at, s);
  // Every overflow entry lies beyond the ring.
  entries.insert(entries.end(), overflow_.begin(), overflow_.end());
  std::sort(entries.begin(), entries.end());
  return entries;
}

void EmissionWheel::snap(snapshot::Walker& w, Cycle now) {
  using snapshot::SnapshotError;
  std::vector<Entry> entries;
  if (!w.loading()) {
    MMR_ASSERT_MSG(now == cursor_ && drained(),
                   "the emission wheel is walked between cycles");
    entries = pending();
  }
  std::uint64_t n = entries.size();
  snapshot::value(w, n);
  if (w.loading()) {
    if (n > next_.size())
      throw SnapshotError("emission list holds " + std::to_string(n) +
                          " entries for " + std::to_string(next_.size()) +
                          " sources");
    entries.resize(static_cast<std::size_t>(n));
  }
  for (Entry& entry : entries) {
    snapshot::value(w, entry.first);
    snapshot::value(w, entry.second);
  }
  if (!w.loading()) return;

  std::fill(head_.begin(), head_.end(), kNone);
  overflow_.clear();
  due_.clear();
  popped_ = 0;
  cursor_ = now;
  std::vector<char> seen(next_.size(), 0);
  for (const auto& [at, source] : entries) {
    if (source >= next_.size())
      throw SnapshotError("emission list names source " +
                          std::to_string(source) + " of " +
                          std::to_string(next_.size()));
    if (seen[source] != 0)
      throw SnapshotError("emission list names source " +
                          std::to_string(source) + " twice");
    if (at < now)
      throw SnapshotError("emission of source " + std::to_string(source) +
                          " at cycle " + std::to_string(at) +
                          " precedes the snapshot's cycle " +
                          std::to_string(now));
    seen[source] = 1;
    schedule(source, at);
  }
}

}  // namespace mmr
