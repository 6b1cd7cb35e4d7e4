#include "mmr/arbiter/islip.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>
#include <bit>

namespace mmr {

IslipArbiter::IslipArbiter(std::uint32_t ports, std::uint32_t iterations)
    : ports_(ports),
      words_(bit_words(ports)),
      iterations_(iterations),
      grant_ptr_(ports, 0),
      accept_ptr_(ports, 0) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(ports_ <= kMaxPorts);
  MMR_ASSERT(iterations_ > 0);
}

void IslipArbiter::arbitrate_into(const CandidateSet& candidates,
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
  grant_of_input_.assign(ports_, -1);

  for (std::uint32_t iter = 0; iter < iterations_; ++iter) {
    // --- Grant: every unmatched output picks the first requesting,
    // unmatched input at or after its grant pointer — a cyclic first-set-bit
    // search over `inputs_of(out) & free_in`.
    std::fill(granted_.begin(), granted_.end(), 0);
    bool any_grant = false;
    for (std::uint32_t w = 0; w < words_; ++w) {
      std::uint64_t outs = free_out_[w];
      const std::uint32_t base = w * kBitsPerWord;
      while (outs != 0) {
        const std::uint32_t out =
            base + static_cast<std::uint32_t>(std::countr_zero(outs));
        outs &= outs - 1;
        const std::uint64_t* row = requests_.inputs_of(out);
        for (std::uint32_t k = 0; k < words_; ++k) scratch_[k] = row[k] & free_in_[k];
        const std::int32_t pos =
            bits_first_cyclic(scratch_.data(), words_, grant_ptr_[out]);
        if (pos == -1) continue;
        const auto in = static_cast<std::uint32_t>(pos);
        any_grant = true;
        // Several outputs may grant the same input; the input accepts the
        // grant its accept pointer prefers.
        if (grant_of_input_[in] == -1 || !bits_test(granted_.data(), in)) {
          grant_of_input_[in] = static_cast<std::int32_t>(out);
          bits_set(granted_.data(), in);
        } else {
          const auto cur = static_cast<std::uint32_t>(grant_of_input_[in]);
          const std::uint32_t a = accept_ptr_[in];
          const std::uint32_t cur_rank = (cur + ports_ - a) % ports_;
          const std::uint32_t new_rank = (out + ports_ - a) % ports_;
          if (new_rank < cur_rank)
            grant_of_input_[in] = static_cast<std::int32_t>(out);
        }
      }
    }
    if (!any_grant) break;

    // --- Accept: every input with grants accepts the preferred one;
    // pointers advance only on first-iteration accepts (standard iSLIP,
    // which is what gives it its fairness/desynchronisation property).
    bool any_accept = false;
    for (std::uint32_t w = 0; w < words_; ++w) {
      std::uint64_t ins = granted_[w];
      const std::uint32_t base = w * kBitsPerWord;
      while (ins != 0) {
        const std::uint32_t in =
            base + static_cast<std::uint32_t>(std::countr_zero(ins));
        ins &= ins - 1;
        const auto out = static_cast<std::uint32_t>(grant_of_input_[in]);
        const std::int32_t cell = requests_.cell(in, out);
        MMR_ASSERT(cell != -1);
        matching.match(in, out, cell);
        bits_clear(free_in_.data(), in);
        bits_clear(free_out_.data(), out);
        any_accept = true;
        if (iter == 0) {
          accept_ptr_[in] = (out + 1) % ports_;
          grant_ptr_[out] = (in + 1) % ports_;
        }
      }
    }
    if (!any_accept) break;
  }
}

void IslipArbiter::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, grant_ptr_);
  snapshot::walk_vector_pod(w, accept_ptr_);
  requests_.snap(w);
}

}  // namespace mmr
