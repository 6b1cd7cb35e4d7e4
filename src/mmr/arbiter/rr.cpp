#include "mmr/arbiter/rr.hpp"

#include "mmr/snapshot/walker.hpp"

#include <algorithm>
#include <bit>

#include "mmr/sim/assert.hpp"

namespace mmr {

RoundRobinArbiter::RoundRobinArbiter(std::uint32_t ports)
    : ports_(ports),
      words_(bit_words(ports)),
      grant_ptr_(ports, 0),
      accept_ptr_(ports, 0) {
  MMR_ASSERT(ports_ > 0);
  MMR_ASSERT(ports_ <= kMaxPorts);
}

void RoundRobinArbiter::arbitrate_into(const CandidateSet& candidates,
                                       Matching& matching) {
  MMR_ASSERT(candidates.ports() == ports_);
  matching.reset(ports_);
  requests_.build(candidates);
  grant_of_input_.assign(ports_, -1);

  // Grant: every requesting output picks the first requesting input at or
  // after its pointer and steps past it whether or not the grant wins —
  // the non-desynchronising update that distinguishes rr from islip1.
  const std::uint64_t* live = requests_.live_outputs();
  for (std::uint32_t w = 0; w < words_; ++w) {
    std::uint64_t outs = live[w];
    const std::uint32_t base = w * kBitsPerWord;
    while (outs != 0) {
      const std::uint32_t out =
          base + static_cast<std::uint32_t>(std::countr_zero(outs));
      outs &= outs - 1;
      const std::int32_t pos = bits_first_cyclic(requests_.inputs_of(out),
                                                 words_, grant_ptr_[out]);
      MMR_ASSERT(pos != -1);  // a live output has at least one requester
      const auto in = static_cast<std::uint32_t>(pos);
      grant_ptr_[out] = (in + 1) % ports_;
      // Several outputs may grant one input; it accepts the grant its
      // accept pointer ranks first (ranks are distinct, so this is
      // order-independent).
      if (grant_of_input_[in] == -1) {
        grant_of_input_[in] = static_cast<std::int32_t>(out);
      } else {
        const auto cur = static_cast<std::uint32_t>(grant_of_input_[in]);
        const std::uint32_t a = accept_ptr_[in];
        if ((out + ports_ - a) % ports_ < (cur + ports_ - a) % ports_)
          grant_of_input_[in] = static_cast<std::int32_t>(out);
      }
    }
  }

  // Accept: one round only — losing outputs stay idle this cycle.
  for (std::uint32_t in = 0; in < ports_; ++in) {
    if (grant_of_input_[in] == -1) continue;
    const auto out = static_cast<std::uint32_t>(grant_of_input_[in]);
    const std::int32_t cell = requests_.cell(in, out);
    MMR_ASSERT(cell != -1);
    matching.match(in, out, cell);
    accept_ptr_[in] = (out + 1) % ports_;
  }
}

void RoundRobinArbiter::snap(snapshot::Walker& w) {
  snapshot::walk_vector_pod(w, grant_ptr_);
  snapshot::walk_vector_pod(w, accept_ptr_);
  requests_.snap(w);
}

}  // namespace mmr
