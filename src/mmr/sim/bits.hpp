// Word-parallel bit sets: `uint64_t` words whose set bits mark members, and
// the cyclic first-set-bit search that turns a round-robin pointer scan into
// a few count-trailing-zeros steps (the request-bitmap view of the MWM/iSLIP
// linear-algebraic formulation).  The bitset arbiters keep their request
// matrices this way; the NIC link controller keeps its non-empty VCs this
// way.
#pragma once

#include <bit>
#include <cstdint>

namespace mmr {

inline constexpr std::uint32_t kBitsPerWord = 64;

/// Words needed for `bits` bits.
[[nodiscard]] constexpr std::uint32_t bit_words(std::uint32_t bits) {
  return (bits + (kBitsPerWord - 1)) / kBitsPerWord;
}

inline void bits_set(std::uint64_t* words, std::uint32_t bit) {
  words[bit >> 6] |= std::uint64_t{1} << (bit & 63u);
}

inline void bits_clear(std::uint64_t* words, std::uint32_t bit) {
  words[bit >> 6] &= ~(std::uint64_t{1} << (bit & 63u));
}

[[nodiscard]] inline bool bits_test(const std::uint64_t* words,
                                    std::uint32_t bit) {
  return (words[bit >> 6] >> (bit & 63u)) & 1u;
}

/// Visits the set bits in cyclic order from `start` (at or after it, then
/// wrapping around to the bits below it) and returns the first one for which
/// `accept(bit)` holds, or -1.  `start` must lie inside the words.
template <class Accept>
[[nodiscard]] std::int32_t bits_find_cyclic(const std::uint64_t* words,
                                            std::uint32_t word_count,
                                            std::uint32_t start,
                                            Accept&& accept) {
  const std::uint32_t start_word = start >> 6;
  const std::uint64_t above = ~std::uint64_t{0} << (start & 63u);
  // Step 0 is the start word from `start` up; steps 1..word_count-1 the
  // other words in cyclic order; the last step the start word below `start`.
  for (std::uint32_t step = 0; step <= word_count; ++step) {
    std::uint32_t k = start_word + step;
    if (k >= word_count) k -= word_count;
    std::uint64_t bits = words[k];
    if (step == 0) {
      bits &= above;
    } else if (step == word_count) {
      bits &= ~above;
    }
    while (bits != 0) {
      const std::uint32_t bit =
          k * kBitsPerWord + static_cast<std::uint32_t>(std::countr_zero(bits));
      if (accept(bit)) return static_cast<std::int32_t>(bit);
      bits &= bits - 1;
    }
  }
  return -1;
}

/// First set bit at or after `start`, wrapping around (the round-robin
/// pointer search of iSLIP's grant stage).  Returns -1 when no bit is set.
[[nodiscard]] inline std::int32_t bits_first_cyclic(const std::uint64_t* words,
                                                    std::uint32_t word_count,
                                                    std::uint32_t start) {
  return bits_find_cyclic(words, word_count, start,
                          [](std::uint32_t) { return true; });
}

}  // namespace mmr
