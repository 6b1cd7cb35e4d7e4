#include "mmr/arbiter/candidate_order.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>
#include <bit>

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
      free_in_(bit_words(ports), 0),
      level_mask_(ports, 0),
      key_(ports, 0),
      out_head_(ports, -1),
      events_(ports, 0) {
  MMR_ASSERT(ports_ > 0);
}

namespace {

/// An output's port-ordering key: its lowest pending level, then the
/// conflict count at that level, so the lower key is the output to match
/// first.  A count never reaches 2^32 (one request per (input, level)).  An
/// output with no level pending keys as level 0: it is leaving the active
/// set, and its key is never read.
std::uint64_t order_key(std::uint64_t level_mask,
                        const std::uint32_t* conflict) {
  const auto level =
      level_mask == 0
          ? 0u
          : static_cast<std::uint32_t>(std::countr_zero(level_mask));
  return std::uint64_t{level} << 32 | conflict[level];
}

}  // namespace

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
  }
  for (std::size_t idx = all.size(); idx-- > 0;) {
    const Candidate& c = all[idx];
    out_next_[idx] = out_head_[c.output];
    out_head_[c.output] = static_cast<std::int32_t>(idx);
    ++conflict_[static_cast<std::size_t>(c.output) * levels + c.level];
    level_mask_[c.output] |= std::uint64_t{1} << c.level;
    bits_set(active_.data(), c.output);
  }

  const auto words = static_cast<std::uint32_t>(active_.size());
  const auto conflict_of = [&](std::uint32_t out) {
    return conflict_.data() + static_cast<std::size_t>(out) * levels;
  };
  for (std::uint32_t w = 0; w < words; ++w) {
    for (std::uint64_t bits = active_[w]; bits != 0; bits &= bits - 1) {
      const std::uint32_t out =
          w * kBitsPerWord + static_cast<std::uint32_t>(std::countr_zero(bits));
      key_[out] = order_key(level_mask_[out], conflict_of(out));
    }
  }
  std::fill(free_in_.begin(), free_in_.end(), ~std::uint64_t{0});

  for (;;) {
    // --- port ordering: pick the next output — lowest level with pending
    // requests first, then fewest conflicts at that level, ties random.
    // The sweep visits the active outputs in ascending order and records,
    // without a branch, each one whose key is at or below the running
    // minimum: below it is a reset of the reservoir, equal to it a tie.
    // Outputs above the minimum never touch the reservoir, so replaying it
    // over the recorded events draws exactly what a full scan draws.
    std::uint32_t events = 0;
    std::uint64_t floor = ~std::uint64_t{0};
    for (std::uint32_t w = 0; w < words; ++w) {
      for (std::uint64_t bits = active_[w]; bits != 0; bits &= bits - 1) {
        const std::uint32_t out =
            w * kBitsPerWord +
            static_cast<std::uint32_t>(std::countr_zero(bits));
        const std::uint64_t key = key_[out];
        events_[events] = out;
        events += key <= floor ? 1u : 0u;
        floor = std::min(floor, key);
      }
    }
    // Every live request's output is active, so no active output means no
    // live request: the matching is complete.
    if (events == 0) break;
    std::uint32_t best_output = events_[0];
    std::uint64_t best_key = key_[best_output];
    std::uint32_t tie_count = 1;
    for (std::uint32_t e = 1; e < events; ++e) {
      const std::uint32_t out = events_[e];
      if (key_[out] < best_key) {
        best_output = out;
        best_key = key_[out];
        tie_count = 1;
      } else if (rng_.uniform(++tie_count) == 0) {
        // Reservoir sampling over tied ports = uniform random tie-break.
        best_output = out;
      }
    }

    // --- arbitration: highest-priority pending request for that output
    // (or, in the coa-np ablation, a uniformly random pending request).
    // Only this output's list is walked, in ascending candidate order; a
    // request whose input is already matched is no longer pending.
    std::int32_t winner = -1;
    Priority best_priority = 0;
    std::uint32_t prio_ties = 0;
    for (std::int32_t idx = out_head_[best_output]; idx != -1;
         idx = out_next_[static_cast<std::size_t>(idx)]) {
      const Candidate& c = all[static_cast<std::size_t>(idx)];
      if (!bits_test(free_in_.data(), c.input)) continue;
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
                       granted.priority, static_cast<std::uint32_t>(best_key));

    // The matched input and output leave.  Only the outputs the input
    // requested change: each loses that request's conflict, and is re-keyed
    // or, with its last pending level gone, deactivated — without a branch,
    // since an output matched earlier (or just now) may take the same
    // updates: it is never read again, and the teardown clears it.
    bits_clear(free_in_.data(), granted.input);
    bits_clear(active_.data(), granted.output);
    for (std::uint32_t l = 0; l < levels; ++l) {
      const std::int32_t idx = candidates.index_of(granted.input, l);
      if (idx == -1) break;
      const std::uint32_t out = all[static_cast<std::size_t>(idx)].output;
      std::uint32_t* conflict = conflict_of(out);
      std::uint64_t& mask = level_mask_[out];
      mask &= ~(std::uint64_t{--conflict[l] == 0} << l);
      active_[out / kBitsPerWord] &=
          ~(std::uint64_t{mask == 0} << (out % kBitsPerWord));
      key_[out] = order_key(mask, conflict);
    }
  }

  // Matched outputs keep their counts, masks and lists: clear them, and
  // everything else the setup raised, candidate by candidate.
  for (const Candidate& c : all) {
    conflict_[static_cast<std::size_t>(c.output) * levels + c.level] = 0;
    level_mask_[c.output] = 0;
    out_head_[c.output] = -1;
  }
}

void CandidateOrderArbiter::snap(snapshot::Walker& w) { rng_.snap(w); }

}  // namespace mmr
