#include "mmr/arbiter/candidate_order.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "mmr/perf/probe.hpp"
#include "mmr/sim/bits.hpp"
#include "mmr/sim/config.hpp"
#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {

CandidateOrderArbiter::CandidateOrderArbiter(std::uint32_t ports, Rng rng,
                                             bool use_priority)
    : ports_(ports),
      rng_(rng),
      use_priority_(use_priority),
      active_(bit_words(ports), 0),
      level_mask_(ports, 0),
      out_head_(ports, -1) {
  MMR_ASSERT(ports_ > 0);
}

void CandidateOrderArbiter::drop(const std::vector<Candidate>& all,
                                 std::uint32_t idx, std::uint32_t levels) {
  request_live_[idx] = 0;
  const Candidate& c = all[idx];
  std::uint32_t& pending =
      conflict_[static_cast<std::size_t>(c.output) * levels + c.level];
  if (--pending != 0) return;
  std::uint64_t& mask = level_mask_[c.output];
  mask &= ~(std::uint64_t{1} << c.level);
  if (mask != 0) return;
  // The output's last live request: it leaves the active set, and its list
  // head resets (a walk in progress holds its own cursor).
  bits_clear(active_.data(), c.output);
  out_head_[c.output] = -1;
}

void CandidateOrderArbiter::arbitrate_into(const CandidateSet& candidates,
                                           Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  const auto& all = candidates.all();
  if (all.empty()) return;

  const std::uint32_t levels = candidates.levels();
  MMR_ASSERT_MSG(levels <= kMaxCandidateLevels,
                 "COA level masks hold 64 levels");

  // Every per-output structure is zero (or -1) between calls, so setup
  // touches only the candidates received: each one raises its conflict
  // count, its output's level bit and active bit, and joins its output's
  // list.  The reverse walk prepends, leaving every list in ascending
  // candidate order — the scan order of the reference implementation, so
  // RNG tie-break draws happen in the same sequence.
  const std::size_t conflict_slots =
      static_cast<std::size_t>(levels) * ports_;
  if (conflict_slots > conflict_.size() || all.size() > out_next_.size()) {
    MMR_PERF_COUNT(perf::Counter::kScratchRealloc, 1);
    conflict_.resize(std::max(conflict_slots, conflict_.size()), 0);
    out_next_.resize(std::max(all.size(), out_next_.size()));
    request_live_.resize(out_next_.size());
  }
  for (std::size_t idx = all.size(); idx-- > 0;) {
    const Candidate& c = all[idx];
    request_live_[idx] = 1;
    out_next_[idx] = out_head_[c.output];
    out_head_[c.output] = static_cast<std::int32_t>(idx);
    ++conflict_[static_cast<std::size_t>(c.output) * levels + c.level];
    level_mask_[c.output] |= std::uint64_t{1} << c.level;
    bits_set(active_.data(), c.output);
  }

  const auto words = static_cast<std::uint32_t>(active_.size());
  for (;;) {
    // --- port ordering: pick the next output — lowest level with pending
    // requests first, then fewest conflicts at that level, ties random.
    // Only active outputs (free, with a live request) are visited, in
    // ascending order, so the reservoir draws match the full scan's.
    std::uint32_t best_output = ports_;
    std::uint32_t best_level = levels;
    std::uint32_t best_conflict = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t tie_count = 0;
    for (std::uint32_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = active_[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t out =
            w * kBitsPerWord +
            static_cast<std::uint32_t>(std::countr_zero(bits));
        // Lowest level at which this output has a pending request.
        const auto lvl =
            static_cast<std::uint32_t>(std::countr_zero(level_mask_[out]));
        const std::uint32_t cnt =
            conflict_[static_cast<std::size_t>(out) * levels + lvl];
        if (lvl < best_level || (lvl == best_level && cnt < best_conflict)) {
          best_output = out;
          best_level = lvl;
          best_conflict = cnt;
          tie_count = 1;
        } else if (lvl == best_level && cnt == best_conflict) {
          // Reservoir sampling over tied ports = uniform random tie-break.
          ++tie_count;
          if (rng_.uniform(tie_count) == 0) best_output = out;
        }
      }
    }
    // Every live request's output is free, so no active output means no
    // live request: the matching is complete and the scratch is zero again.
    if (best_output == ports_) break;

    // --- arbitration: highest-priority pending request for that output
    // (or, in the coa-np ablation, a uniformly random pending request).
    // Only this output's list is walked, in ascending candidate order.
    std::int32_t winner = -1;
    Priority best_priority = 0;
    std::uint32_t prio_ties = 0;
    for (std::int32_t idx = out_head_[best_output]; idx != -1;
         idx = out_next_[static_cast<std::size_t>(idx)]) {
      if (!request_live_[static_cast<std::size_t>(idx)]) continue;
      const Candidate& c = all[static_cast<std::size_t>(idx)];
      const Priority effective = use_priority_ ? c.priority : 0;
      if (winner == -1 || effective > best_priority) {
        winner = idx;
        best_priority = effective;
        prio_ties = 1;
      } else if (effective == best_priority) {
        ++prio_ties;
        if (rng_.uniform(prio_ties) == 0) winner = idx;
      }
    }
    MMR_ASSERT(winner != -1);
    const Candidate& granted = all[static_cast<std::size_t>(winner)];
    matching.match(granted.input, granted.output, winner);
    MMR_TRACE_EMIT_NOW(trace::grant_reason_event, granted.input,
                       granted.output, granted.vc, granted.level,
                       granted.priority, best_conflict);

    // Drop every request involving the matched input (its level slots) or
    // output (its list); an output's last drop deactivates it.
    for (std::uint32_t l = 0; l < levels; ++l) {
      const std::int32_t idx = candidates.index_of(granted.input, l);
      if (idx == -1) break;
      if (request_live_[static_cast<std::size_t>(idx)])
        drop(all, static_cast<std::uint32_t>(idx), levels);
    }
    for (std::int32_t idx = out_head_[granted.output]; idx != -1;
         idx = out_next_[static_cast<std::size_t>(idx)]) {
      if (request_live_[static_cast<std::size_t>(idx)])
        drop(all, static_cast<std::uint32_t>(idx), levels);
    }
  }
}

CandidateOrderScanArbiter::CandidateOrderScanArbiter(std::uint32_t ports,
                                                     Rng rng,
                                                     bool use_priority)
    : ports_(ports), rng_(rng), use_priority_(use_priority) {
  MMR_ASSERT(ports_ > 0);
}

void CandidateOrderScanArbiter::arbitrate_into(const CandidateSet& candidates,
                                               Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  const auto& all = candidates.all();
  if (all.empty()) return;

  const std::uint32_t levels = candidates.levels();

  // Conflict vector: pending request count per (level, output).
  conflict_.assign(static_cast<std::size_t>(levels) * ports_, 0);
  input_free_.assign(ports_, 1);
  output_free_.assign(ports_, 1);
  request_live_.assign(all.size(), 1);
  for (const Candidate& c : all) {
    ++conflict_[static_cast<std::size_t>(c.level) * ports_ + c.output];
  }

  std::size_t live = all.size();
  while (live > 0) {
    // --- port ordering: pick the next output — lowest level with pending
    // requests first, then fewest conflicts at that level, ties random.
    std::uint32_t best_output = ports_;
    std::uint32_t best_level = levels;
    std::uint32_t best_conflict = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t tie_count = 0;
    for (std::uint32_t out = 0; out < ports_; ++out) {
      if (!output_free_[out]) continue;
      // Lowest level at which this output has a pending request.
      std::uint32_t lvl = levels;
      for (std::uint32_t l = 0; l < levels; ++l) {
        if (conflict_[static_cast<std::size_t>(l) * ports_ + out] > 0) {
          lvl = l;
          break;
        }
      }
      if (lvl == levels) continue;  // no pending request for this output
      const std::uint32_t cnt =
          conflict_[static_cast<std::size_t>(lvl) * ports_ + out];
      if (lvl < best_level || (lvl == best_level && cnt < best_conflict)) {
        best_output = out;
        best_level = lvl;
        best_conflict = cnt;
        tie_count = 1;
      } else if (lvl == best_level && cnt == best_conflict) {
        // Reservoir sampling over tied ports = uniform random tie-break.
        ++tie_count;
        if (rng_.uniform(tie_count) == 0) best_output = out;
      }
    }
    if (best_output == ports_) break;  // all pending requests are blocked

    // --- arbitration: highest-priority pending request for that output
    // (or, in the coa-np ablation, a uniformly random pending request).
    std::int32_t winner = -1;
    Priority best_priority = 0;
    std::uint32_t prio_ties = 0;
    for (std::size_t idx = 0; idx < all.size(); ++idx) {
      if (!request_live_[idx]) continue;
      const Candidate& c = all[idx];
      if (c.output != best_output) continue;
      const Priority effective = use_priority_ ? c.priority : 0;
      if (winner == -1 || effective > best_priority) {
        winner = static_cast<std::int32_t>(idx);
        best_priority = effective;
        prio_ties = 1;
      } else if (effective == best_priority) {
        ++prio_ties;
        if (rng_.uniform(prio_ties) == 0)
          winner = static_cast<std::int32_t>(idx);
      }
    }
    MMR_ASSERT(winner != -1);
    const Candidate& granted = all[static_cast<std::size_t>(winner)];
    matching.match(granted.input, granted.output, winner);
    MMR_TRACE_EMIT_NOW(trace::grant_reason_event, granted.input,
                       granted.output, granted.vc, granted.level,
                       granted.priority, best_conflict);
    input_free_[granted.input] = 0;
    output_free_[granted.output] = 0;

    // Drop every request involving the matched input or output and
    // recompute (incrementally) the conflict vector.
    for (std::size_t idx = 0; idx < all.size(); ++idx) {
      if (!request_live_[idx]) continue;
      const Candidate& c = all[idx];
      if (c.input == granted.input || c.output == granted.output) {
        request_live_[idx] = 0;
        --conflict_[static_cast<std::size_t>(c.level) * ports_ + c.output];
        --live;
      }
    }
  }
}

void CandidateOrderArbiter::snap(snapshot::Walker& w) { rng_.snap(w); }

void CandidateOrderScanArbiter::snap(snapshot::Walker& w) { rng_.snap(w); }

}  // namespace mmr
