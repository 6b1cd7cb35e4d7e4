#include "mmr/arbiter/bitreq.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>

#include "mmr/perf/probe.hpp"

namespace mmr {

void BitRequestMatrix::build(const CandidateSet& candidates) {
  const std::uint32_t ports = candidates.ports();
  MMR_ASSERT(ports <= kMaxPorts);
  if (ports != ports_) {
    MMR_PERF_COUNT(perf::Counter::kScratchRealloc, 1);
    ports_ = ports;
    words_ = bit_words(ports);
    in_rows_.assign(static_cast<std::size_t>(ports_) * words_, 0);
    out_rows_.assign(static_cast<std::size_t>(ports_) * words_, 0);
    in_live_.assign(words_, 0);
    out_live_.assign(words_, 0);
    cell_.assign(static_cast<std::size_t>(ports_) * ports_, -1);
  } else {
    // Clear only the cells the previous build occupied (its in_rows_ bits),
    // then zero the rows themselves — word-parallel, request-proportional.
    for (std::uint32_t input = 0; input < ports_; ++input) {
      std::int32_t* row = cell_.data() + static_cast<std::size_t>(input) * ports_;
      const std::uint64_t* bits_row = outputs_of(input);
      for (std::uint32_t w = 0; w < words_; ++w) {
        std::uint64_t bits = bits_row[w];
        const std::uint32_t base = w * kBitsPerWord;
        while (bits != 0) {
          row[base + static_cast<std::uint32_t>(std::countr_zero(bits))] = -1;
          bits &= bits - 1;
        }
      }
    }
    std::fill(in_rows_.begin(), in_rows_.end(), 0);
    std::fill(out_rows_.begin(), out_rows_.end(), 0);
    std::fill(in_live_.begin(), in_live_.end(), 0);
    std::fill(out_live_.begin(), out_live_.end(), 0);
  }

  // Level-collapse: when several candidate levels of one input request the
  // same output, keep the lowest level (matches the scan engines exactly).
  const auto& all = candidates.all();
  for (std::size_t idx = 0; idx < all.size(); ++idx) {
    const Candidate& c = all[idx];
    std::int32_t& cell =
        cell_[static_cast<std::size_t>(c.input) * ports_ + c.output];
    if (cell == -1) {
      cell = static_cast<std::int32_t>(idx);
      bits_set(in_rows_.data() + static_cast<std::size_t>(c.input) * words_,
               c.output);
      bits_set(out_rows_.data() + static_cast<std::size_t>(c.output) * words_,
               c.input);
      bits_set(in_live_.data(), c.input);
      bits_set(out_live_.data(), c.output);
    } else if (c.level < all[static_cast<std::size_t>(cell)].level) {
      cell = static_cast<std::int32_t>(idx);
    }
  }
}

void BitRequestMatrix::snap(snapshot::Walker& w) {
  snapshot::value(w, ports_);
  snapshot::value(w, words_);
  snapshot::walk_vector_pod(w, in_rows_);
  snapshot::walk_vector_pod(w, out_rows_);
  snapshot::walk_vector_pod(w, in_live_);
  snapshot::walk_vector_pod(w, out_live_);
  snapshot::walk_vector_pod(w, cell_);
}

}  // namespace mmr
