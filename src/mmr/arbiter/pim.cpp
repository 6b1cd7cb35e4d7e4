#include "mmr/arbiter/pim.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>
#include <bit>

namespace mmr {

PimArbiter::PimArbiter(std::uint32_t ports, Rng rng, std::uint32_t iterations)
    : ports_(ports),
      words_(bit_words(ports)),
      rng_(rng),
      iterations_(iterations) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(ports_ <= kMaxPorts);
  MMR_ASSERT(iterations_ > 0);
}

void PimArbiter::arbitrate_into(const CandidateSet& candidates,
                                Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  requests_.build(candidates);

  free_in_.assign(words_, 0);
  free_out_.assign(words_, 0);
  std::copy_n(requests_.live_inputs(), words_, free_in_.data());
  std::copy_n(requests_.live_outputs(), words_, free_out_.data());
  scratch_.resize(words_);
  granted_.resize(words_);
  grant_of_input_.resize(ports_);
  grants_seen_.resize(ports_);

  for (std::uint32_t iter = 0; iter < iterations_; ++iter) {
    std::fill(granted_.begin(), granted_.end(), 0);
    std::fill(grants_seen_.begin(), grants_seen_.end(), 0u);
    bool any_grant = false;
    // Grant: each free output picks uniformly among requesting free inputs
    // (single pass reservoir sampling).  Set bits iterate in ascending
    // (output, input) order, so the reservoir consumes RNG draws exactly as
    // the dense scan does — the matchings are bit-identical.
    for (std::uint32_t w = 0; w < words_; ++w) {
      std::uint64_t outs = free_out_[w];
      const std::uint32_t base = w * kBitsPerWord;
      while (outs != 0) {
        const std::uint32_t out =
            base + static_cast<std::uint32_t>(std::countr_zero(outs));
        outs &= outs - 1;
        const std::uint64_t* row = requests_.inputs_of(out);
        std::int32_t pick = -1;
        std::uint32_t seen = 0;
        for (std::uint32_t k = 0; k < words_; ++k) {
          std::uint64_t ins = row[k] & free_in_[k];
          const std::uint32_t in_base = k * kBitsPerWord;
          while (ins != 0) {
            const std::uint32_t in =
                in_base + static_cast<std::uint32_t>(std::countr_zero(ins));
            ins &= ins - 1;
            ++seen;
            if (rng_.uniform(seen) == 0) pick = static_cast<std::int32_t>(in);
          }
        }
        if (pick == -1) continue;
        any_grant = true;
        // Accept: each input picks uniformly among the grants it received —
        // realised as reservoir sampling while grants stream in.
        const auto in = static_cast<std::uint32_t>(pick);
        ++grants_seen_[in];
        if (rng_.uniform(grants_seen_[in]) == 0) {
          grant_of_input_[in] = static_cast<std::int32_t>(out);
          bits_set(granted_.data(), in);
        }
      }
    }
    if (!any_grant) break;
    for (std::uint32_t w = 0; w < words_; ++w) {
      std::uint64_t ins = granted_[w];
      const std::uint32_t base = w * kBitsPerWord;
      while (ins != 0) {
        const std::uint32_t in =
            base + static_cast<std::uint32_t>(std::countr_zero(ins));
        ins &= ins - 1;
        const auto out = static_cast<std::uint32_t>(grant_of_input_[in]);
        const std::int32_t cell = requests_.cell(in, out);
        matching.match(in, out, cell);
        bits_clear(free_in_.data(), in);
        bits_clear(free_out_.data(), out);
      }
    }
  }
}

void PimArbiter::snap(snapshot::Walker& w) {
  rng_.snap(w);
  requests_.snap(w);
}

}  // namespace mmr
