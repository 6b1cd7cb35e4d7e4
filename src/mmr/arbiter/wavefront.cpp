#include "mmr/arbiter/wavefront.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>

#include "mmr/trace/event.hpp"
#include "mmr/trace/tracer.hpp"

namespace mmr {

namespace detail {

void collapse_requests(const CandidateSet& candidates, std::uint32_t ports,
                       std::vector<std::int32_t>& request) {
  // When several candidate levels of one input request the same output,
  // keep the lowest level (the VC the link scheduler ranked highest) — the
  // hardware would transmit that one.
  request.assign(static_cast<std::size_t>(ports) * ports, -1);
  const auto& all = candidates.all();
  for (std::size_t idx = 0; idx < all.size(); ++idx) {
    const Candidate& c = all[idx];
    std::int32_t& cell =
        request[static_cast<std::size_t>(c.input) * ports + c.output];
    if (cell == -1 || c.level < all[static_cast<std::size_t>(cell)].level) {
      cell = static_cast<std::int32_t>(idx);
    }
  }
}

}  // namespace detail

WaveFrontArbiter::WaveFrontArbiter(std::uint32_t ports, bool rotate)
    : ports_(ports), words_(bit_words(ports)), rotate_(rotate) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(ports_ <= kMaxPorts);
}

void WaveFrontArbiter::arbitrate_into(const CandidateSet& candidates,
                                      Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  const std::uint32_t offset = offset_;
  if (rotate_) offset_ = offset_ + 1 == ports_ ? 0 : offset_ + 1;
  requests_.build(candidates);

  // Rotated row coordinates: wave row r corresponds to physical input
  // (r + offset) mod P, so the corner starts at input `offset` and the sweep
  // is otherwise the standard partial anti-diagonal walk.  free_rows_ holds
  // the *rotated* indices of inputs that still have a pending request and no
  // grant; free_cols_ the physical outputs likewise.
  free_rows_.assign(words_, 0);
  free_cols_.assign(words_, 0);
  std::copy_n(requests_.live_outputs(), words_, free_cols_.data());
  {
    const std::uint64_t* live = requests_.live_inputs();
    for (std::uint32_t w = 0; w < words_; ++w) {
      std::uint64_t bits = live[w];
      const std::uint32_t base = w * kBitsPerWord;
      while (bits != 0) {
        const std::uint32_t input =
            base + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t rotated =
            input >= offset ? input - offset : input + ports_ - offset;
        bits_set(free_rows_.data(), rotated);
      }
    }
  }

  // 2P-1 partial anti-diagonals row + col == wave, from the rotated corner.
  for (std::uint32_t wave = 0; wave <= 2 * (ports_ - 1); ++wave) {
    const std::uint32_t r_begin = wave < ports_ ? 0 : wave - (ports_ - 1);
    const std::uint32_t r_end = wave < ports_ ? wave : ports_ - 1;
    // ctz walk over the free rotated rows clipped to [r_begin, r_end].
    const std::uint32_t w_begin = r_begin >> 6;
    const std::uint32_t w_end = r_end >> 6;
    for (std::uint32_t w = w_begin; w <= w_end; ++w) {
      std::uint64_t bits = free_rows_[w];
      if (w == w_begin) bits &= ~std::uint64_t{0} << (r_begin & 63u);
      if (w == w_end && (r_end & 63u) != 63u)
        bits &= (std::uint64_t{1} << ((r_end & 63u) + 1)) - 1;
      const std::uint32_t base = w * kBitsPerWord;
      while (bits != 0) {
        const std::uint32_t row =
            base + static_cast<std::uint32_t>(std::countr_zero(bits));
        bits &= bits - 1;
        const std::uint32_t col = wave - row;
        if (!bits_test(free_cols_.data(), col)) continue;
        const std::uint32_t input =
            row + offset >= ports_ ? row + offset - ports_ : row + offset;
        if (!bits_test(requests_.outputs_of(input), col)) continue;
        const std::int32_t cell = requests_.cell(input, col);
        matching.match(input, col, cell);
        bits_clear(free_rows_.data(), row);
        bits_clear(free_cols_.data(), col);
        if (MMR_TRACE_ON()) {
          const Candidate& granted =
              candidates.at(static_cast<std::size_t>(cell));
          MMR_TRACE_EMIT_NOW(trace::grant_reason_event, input, col, granted.vc,
                             granted.level, granted.priority, wave);
        }
      }
    }
  }
}

WrappedWaveFrontArbiter::WrappedWaveFrontArbiter(std::uint32_t ports)
    : ports_(ports) {
  MMR_ASSERT(ports_ > 0);
}

void WrappedWaveFrontArbiter::arbitrate_into(const CandidateSet& candidates,
                                             Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  detail::collapse_requests(candidates, ports_, request_);

  // P wrapped anti-diagonals: wave w processes cells with
  // (i + j) mod P == (start + w) mod P.
  for (std::uint32_t wave = 0; wave < ports_; ++wave) {
    const std::uint32_t diag = (start_ + wave) % ports_;
    for (std::uint32_t i = 0; i < ports_; ++i) {
      const std::uint32_t j = (diag + ports_ - i) % ports_;
      if (matching.input_matched(i) || matching.output_matched(j)) continue;
      const std::int32_t cell =
          request_[static_cast<std::size_t>(i) * ports_ + j];
      if (cell == -1) continue;
      matching.match(i, j, cell);
      if (MMR_TRACE_ON()) {
        const Candidate& granted =
            candidates.at(static_cast<std::size_t>(cell));
        MMR_TRACE_EMIT_NOW(trace::grant_reason_event, i, j, granted.vc,
                           granted.level, granted.priority, diag);
      }
    }
  }

  start_ = (start_ + 1) % ports_;
}

void WaveFrontArbiter::snap(snapshot::Walker& w) {
  snapshot::value(w, offset_);
  requests_.snap(w);
}

void WrappedWaveFrontArbiter::snap(snapshot::Walker& w) {
  snapshot::value(w, start_);
}

}  // namespace mmr
