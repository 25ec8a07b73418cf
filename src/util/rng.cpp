#include "util/rng.hpp"

#include "util/error.hpp"

namespace rtv {

std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& word : s_) {
    word = splitmix64(sm);
  }
  // xoshiro256** must not start in the all-zero state; SplitMix64 of any
  // seed never yields four zero words in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) {
    s_[0] = 0x9e3779b97f4a7c15ULL;
  }
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  RTV_REQUIRE(lo <= hi, "Rng::range requires lo <= hi");
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) {  // full 64-bit range
    return static_cast<std::int64_t>(next());
  }
  return lo + static_cast<std::int64_t>(below(span));
}

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::size_t Rng::index(std::size_t size) {
  RTV_REQUIRE(size > 0, "Rng::index requires a non-empty container");
  return static_cast<std::size_t>(below(size));
}

}  // namespace rtv
