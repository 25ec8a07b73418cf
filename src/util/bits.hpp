#pragma once
// Small bit-manipulation helpers shared by the simulators and STG engine.

#include <bit>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace rtv {

/// Number of 64-bit words needed to hold `bits` bits.
constexpr std::size_t words_for_bits(std::size_t bits) {
  return (bits + 63) / 64;
}

/// Extract bit `i` of `word`.
constexpr bool get_bit(std::uint64_t word, unsigned i) {
  return ((word >> i) & 1ULL) != 0;
}

/// Set bit `i` of `word` to `v`.
constexpr std::uint64_t set_bit(std::uint64_t word, unsigned i, bool v) {
  const std::uint64_t mask = 1ULL << i;
  return v ? (word | mask) : (word & ~mask);
}

/// Population count.
constexpr int popcount64(std::uint64_t x) { return std::popcount(x); }

/// 2^n as uint64, checked against overflow.
inline std::uint64_t pow2(unsigned n) {
  RTV_REQUIRE(n < 64, "pow2 exponent must be < 64");
  return 1ULL << n;
}

/// 3^n as uint64, checked against overflow (n <= 40).
inline std::uint64_t pow3(unsigned n) {
  RTV_REQUIRE(n <= 40, "pow3 exponent must be <= 40");
  std::uint64_t r = 1;
  for (unsigned i = 0; i < n; ++i) r *= 3;
  return r;
}

/// 3^n as uint64, saturating at UINT64_MAX instead of overflowing or
/// throwing. Safe for mode-selection comparisons ("is 3^I below this cap?")
/// on designs with arbitrarily many inputs: 3^41 and beyond clamp to
/// UINT64_MAX, so a wide design can never wrap around and masquerade as a
/// small branching factor.
inline std::uint64_t pow3_saturating(unsigned n) {
  if (n > 40) return ~0ULL;  // 3^41 > 2^64
  std::uint64_t r = 1;
  for (unsigned i = 0; i < n; ++i) r *= 3;
  return r;
}

/// Mask with the low `n` bits set (n <= 64).
inline std::uint64_t low_mask(unsigned n) {
  RTV_REQUIRE(n <= 64, "low_mask width must be <= 64");
  return n == 64 ? ~0ULL : (1ULL << n) - 1;
}

/// FNV-1a over `n` 64-bit words.
inline std::size_t hash_words(const std::uint64_t* words, std::size_t n) {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::size_t i = 0; i < n; ++i) {
    h ^= words[i];
    h *= 1099511628211ULL;
  }
  return static_cast<std::size_t>(h);
}

/// Hash functor for word vectors used as unordered-container keys.
struct WordsHash {
  std::size_t operator()(const std::vector<std::uint64_t>& v) const {
    return hash_words(v.data(), v.size());
  }
};

}  // namespace rtv
