#pragma once
// Deterministic pseudo-random number generation.
//
// Every randomized experiment in this repository draws from rtv::Rng seeded
// with an explicit value so that all tables and property sweeps are exactly
// reproducible. The generator is xoshiro256** (Blackman/Vigna), seeded
// through SplitMix64 per the authors' recommendation.

#include <bit>
#include <cstdint>
#include <vector>

#include "util/error.hpp"

namespace rtv {

/// SplitMix64 step; used for seeding and as a cheap standalone mixer.
std::uint64_t splitmix64(std::uint64_t& state);

/// xoshiro256** — fast, high-quality, deterministic PRNG.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  /// Next raw 64-bit value. Inline, like below(): samplers draw one value
  /// per simulated trit.
  std::uint64_t next() {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// UniformRandomBitGenerator interface (usable with <random> adaptors).
  std::uint64_t operator()() { return next(); }
  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ULL; }

  /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
  /// (rejection on the low residues). Inline so that a constant bound folds
  /// the two divisions away.
  std::uint64_t below(std::uint64_t bound) {
    RTV_REQUIRE(bound > 0, "Rng::below requires bound > 0");
    const std::uint64_t threshold = (~bound + 1) % bound;  // 2^64 mod bound
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  std::int64_t range(std::int64_t lo, std::int64_t hi);

  /// Bernoulli trial with probability p (clamped to [0,1]).
  bool chance(double p);

  /// Fair coin.
  bool coin() { return (next() >> 63) != 0; }

  /// Uniform double in [0, 1).
  double uniform();

  /// Fisher–Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = static_cast<std::size_t>(below(i));
      using std::swap;
      swap(v[i - 1], v[j]);
    }
  }

  /// Pick a uniformly random element index of a non-empty container size.
  std::size_t index(std::size_t size);

 private:
  std::uint64_t s_[4];
};

}  // namespace rtv
