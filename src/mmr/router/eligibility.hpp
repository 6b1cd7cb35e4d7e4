// Which queue heads may compete for the crossbar this cycle, as bit words
// the owner keeps current at events, so a select tests bits rather than
// evaluating a predicate per head (the request-bitmap view the NIC and the
// bitset arbiters already use).
// A head of (input, vc) bound for `output` is eligible when
//   * bit (input, vc) is set: the VC's next hop holds a credit for it, or
//     the VC's next hop is the attached host; and
//   * bit `output` is clear: the output's channel is neither paused by the
//     downstream MMU nor down.
// The multi-router engine flips a bit at each event that changes one —
// credit consume and return, restore, Xoff/Xon, fault up/down, reroute,
// checkpoint load — so an Xoff or a link fault is one bit, not a VC walk.
// A fresh mask makes every head eligible (the one-router setup).
#pragma once

#include <cstdint>
#include <vector>

#include "mmr/sim/assert.hpp"
#include "mmr/sim/bits.hpp"

namespace mmr {

class EligibilityMask {
 public:
  EligibilityMask(std::uint32_t ports, std::uint32_t vcs)
      : ports_(ports),
        vcs_(vcs),
        words_(bit_words(vcs)),
        credit_(static_cast<std::size_t>(ports) * words_, ~std::uint64_t{0}),
        blocked_(bit_words(ports), 0) {}

  [[nodiscard]] bool eligible(std::uint32_t input, std::uint32_t vc,
                              std::uint32_t output) const {
    return credit(input, vc) && !blocked(output);
  }
  [[nodiscard]] bool credit(std::uint32_t input, std::uint32_t vc) const {
    MMR_ASSERT(input < ports_ && vc < vcs_);
    return bits_test(credit_.data() + std::size_t{input} * words_, vc);
  }
  [[nodiscard]] bool blocked(std::uint32_t output) const {
    MMR_ASSERT(output < ports_);
    return bits_test(blocked_.data(), output);
  }

  void set_credit(std::uint32_t input, std::uint32_t vc, bool has_credit) {
    MMR_ASSERT(input < ports_ && vc < vcs_);
    std::uint64_t* words = credit_.data() + std::size_t{input} * words_;
    has_credit ? bits_set(words, vc) : bits_clear(words, vc);
  }
  void set_blocked(std::uint32_t output, bool blocked) {
    MMR_ASSERT(output < ports_);
    blocked ? bits_set(blocked_.data(), output)
            : bits_clear(blocked_.data(), output);
  }

 private:
  std::uint32_t ports_;
  std::uint32_t vcs_;
  std::uint32_t words_;  ///< credit words per input
  std::vector<std::uint64_t> credit_;   ///< (input, vc): next hop has credit
  std::vector<std::uint64_t> blocked_;  ///< output: paused or down
};

}  // namespace mmr
