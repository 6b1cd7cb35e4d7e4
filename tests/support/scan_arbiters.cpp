#include "support/scan_arbiters.hpp"

#include <algorithm>
#include <limits>

#include "mmr/arbiter/wavefront.hpp"
#include "mmr/sim/assert.hpp"
#include "mmr/snapshot/walker.hpp"

namespace mmr {

// --- COA -------------------------------------------------------------------

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

void CandidateOrderScanArbiter::snap(snapshot::Walker& w) { rng_.snap(w); }

// --- Wave Front ------------------------------------------------------------

WaveFrontScanArbiter::WaveFrontScanArbiter(std::uint32_t ports, bool rotate)
    : ports_(ports), rotate_(rotate) {
  MMR_ASSERT(ports_ > 0);
}

void WaveFrontScanArbiter::arbitrate_into(const CandidateSet& candidates,
                                          Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  detail::collapse_requests(candidates, ports_, request_);
  const std::uint32_t offset = offset_;
  if (rotate_) offset_ = offset_ + 1 == ports_ ? 0 : offset_ + 1;

  // 2P-1 partial anti-diagonals row + col == wave; row r is physical input
  // (r + offset) mod P (offset stays 0 for the fixed corner).
  for (std::uint32_t wave = 0; wave <= 2 * (ports_ - 1); ++wave) {
    const std::uint32_t r_begin = wave < ports_ ? 0 : wave - (ports_ - 1);
    const std::uint32_t r_end = wave < ports_ ? wave : ports_ - 1;
    for (std::uint32_t row = r_begin; row <= r_end; ++row) {
      const std::uint32_t j = wave - row;
      const std::uint32_t i =
          row + offset >= ports_ ? row + offset - ports_ : row + offset;
      if (matching.input_matched(i) || matching.output_matched(j)) continue;
      const std::int32_t cell =
          request_[static_cast<std::size_t>(i) * ports_ + j];
      if (cell != -1) matching.match(i, j, cell);
    }
  }
}

void WaveFrontScanArbiter::snap(snapshot::Walker& w) {
  snapshot::value(w, offset_);
}

// --- iSLIP -----------------------------------------------------------------

IslipScanArbiter::IslipScanArbiter(std::uint32_t ports,
                                   std::uint32_t iterations)
    : ports_(ports),
      iterations_(iterations),
      grant_ptr_(ports, 0),
      accept_ptr_(ports, 0) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(iterations_ > 0);
}

void IslipScanArbiter::arbitrate_into(const CandidateSet& candidates,
                                      Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  detail::collapse_requests(candidates, ports_, request_);

  std::vector<std::int32_t> grant_of_input(ports_);
  for (std::uint32_t iter = 0; iter < iterations_; ++iter) {
    std::fill(grant_of_input.begin(), grant_of_input.end(), -1);
    bool any_grant = false;
    for (std::uint32_t out = 0; out < ports_; ++out) {
      if (matching.output_matched(out)) continue;
      for (std::uint32_t k = 0; k < ports_; ++k) {
        const std::uint32_t in = (grant_ptr_[out] + k) % ports_;
        if (matching.input_matched(in)) continue;
        if (request_[static_cast<std::size_t>(in) * ports_ + out] == -1)
          continue;
        if (grant_of_input[in] == -1) {
          grant_of_input[in] = static_cast<std::int32_t>(out);
        } else {
          const auto cur = static_cast<std::uint32_t>(grant_of_input[in]);
          const std::uint32_t a = accept_ptr_[in];
          const std::uint32_t cur_rank = (cur + ports_ - a) % ports_;
          const std::uint32_t new_rank = (out + ports_ - a) % ports_;
          if (new_rank < cur_rank)
            grant_of_input[in] = static_cast<std::int32_t>(out);
        }
        any_grant = true;
        break;  // one grant per output
      }
    }
    if (!any_grant) break;

    bool any_accept = false;
    for (std::uint32_t in = 0; in < ports_; ++in) {
      if (grant_of_input[in] == -1) continue;
      const auto out = static_cast<std::uint32_t>(grant_of_input[in]);
      const std::int32_t cell =
          request_[static_cast<std::size_t>(in) * ports_ + out];
      MMR_ASSERT(cell != -1);
      matching.match(in, out, cell);
      any_accept = true;
      if (iter == 0) {
        accept_ptr_[in] = (out + 1) % ports_;
        grant_ptr_[out] = (in + 1) % ports_;
      }
    }
    if (!any_accept) break;
  }
}

void IslipScanArbiter::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, grant_ptr_);
  snapshot::walk_vector_pod(w, accept_ptr_);
}

// --- PIM -------------------------------------------------------------------

PimScanArbiter::PimScanArbiter(std::uint32_t ports, Rng rng,
                               std::uint32_t iterations)
    : ports_(ports), rng_(rng), iterations_(iterations) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(iterations_ > 0);
}

void PimScanArbiter::arbitrate_into(const CandidateSet& candidates,
                                    Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  detail::collapse_requests(candidates, ports_, request_);

  std::vector<std::int32_t> grant_of_input(ports_);
  std::vector<std::uint32_t> grants_seen(ports_);
  for (std::uint32_t iter = 0; iter < iterations_; ++iter) {
    std::fill(grant_of_input.begin(), grant_of_input.end(), -1);
    std::fill(grants_seen.begin(), grants_seen.end(), 0u);
    bool any_grant = false;
    for (std::uint32_t out = 0; out < ports_; ++out) {
      if (matching.output_matched(out)) continue;
      std::int32_t pick = -1;
      std::uint32_t seen = 0;
      for (std::uint32_t in = 0; in < ports_; ++in) {
        if (matching.input_matched(in)) continue;
        if (request_[static_cast<std::size_t>(in) * ports_ + out] == -1)
          continue;
        ++seen;
        if (rng_.uniform(seen) == 0) pick = static_cast<std::int32_t>(in);
      }
      if (pick == -1) continue;
      any_grant = true;
      const auto in = static_cast<std::uint32_t>(pick);
      ++grants_seen[in];
      if (rng_.uniform(grants_seen[in]) == 0)
        grant_of_input[in] = static_cast<std::int32_t>(out);
    }
    if (!any_grant) break;
    for (std::uint32_t in = 0; in < ports_; ++in) {
      if (grant_of_input[in] == -1) continue;
      const auto out = static_cast<std::uint32_t>(grant_of_input[in]);
      const std::int32_t cell =
          request_[static_cast<std::size_t>(in) * ports_ + out];
      matching.match(in, out, cell);
    }
  }
}

void PimScanArbiter::snap(snapshot::Walker& w) { rng_.snap(w); }

// --- round-robin -----------------------------------------------------------

RoundRobinScanArbiter::RoundRobinScanArbiter(std::uint32_t ports)
    : ports_(ports), grant_ptr_(ports, 0), accept_ptr_(ports, 0) {
  MMR_ASSERT(ports_ > 0);
}

void RoundRobinScanArbiter::arbitrate_into(const CandidateSet& candidates,
                                           Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  detail::collapse_requests(candidates, ports_, request_);

  std::vector<std::int32_t> grant_of_input(ports_, -1);
  for (std::uint32_t out = 0; out < ports_; ++out) {
    for (std::uint32_t k = 0; k < ports_; ++k) {
      const std::uint32_t in = (grant_ptr_[out] + k) % ports_;
      if (request_[static_cast<std::size_t>(in) * ports_ + out] == -1)
        continue;
      grant_ptr_[out] = (in + 1) % ports_;
      if (grant_of_input[in] == -1) {
        grant_of_input[in] = static_cast<std::int32_t>(out);
      } else {
        const auto cur = static_cast<std::uint32_t>(grant_of_input[in]);
        const std::uint32_t a = accept_ptr_[in];
        if ((out + ports_ - a) % ports_ < (cur + ports_ - a) % ports_)
          grant_of_input[in] = static_cast<std::int32_t>(out);
      }
      break;  // one grant per output
    }
  }

  for (std::uint32_t in = 0; in < ports_; ++in) {
    if (grant_of_input[in] == -1) continue;
    const auto out = static_cast<std::uint32_t>(grant_of_input[in]);
    const std::int32_t cell =
        request_[static_cast<std::size_t>(in) * ports_ + out];
    MMR_ASSERT(cell != -1);
    matching.match(in, out, cell);
    accept_ptr_[in] = (out + 1) % ports_;
  }
}

void RoundRobinScanArbiter::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, grant_ptr_);
  snapshot::walk_vector_pod(w, accept_ptr_);
}

}  // namespace mmr
