#pragma once
// Moore partition refinement and the quotient machine over a plain
// next-state table, shared by equivalence_classes/quotient (minimize.cpp,
// 32-bit state ids) and Stg::extract_minimized (stg.cpp, 16-bit state ids).
// Private to src/stg.

#include <unordered_map>
#include <vector>

#include "stg/stg.hpp"
#include "util/bits.hpp"

namespace rtv {

/// The coarsest stable refinement of `cls` (dense class ids, one per state)
/// over next[state * ni + input], numbered by first occurrence.
template <typename Next>
std::vector<std::uint32_t> refine_partition(std::vector<std::uint32_t> cls,
                                            const Next* next,
                                            std::uint64_t ni,
                                            ResourceBudget* budget) {
  const std::uint64_t n = cls.size();
  std::vector<std::uint32_t> next_cls(n);
  std::vector<std::uint64_t> sig(ni + 1);
  for (;;) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/refine-iter");
    std::unordered_map<std::vector<std::uint64_t>, std::uint32_t, WordsHash> ids;
    for (std::uint64_t s = 0; s < n; ++s) {
      sig[0] = cls[s];
      const Next* row = next + s * ni;
      for (std::uint64_t a = 0; a < ni; ++a) sig[a + 1] = cls[row[a]];
      const auto [it, inserted] =
          ids.try_emplace(sig, static_cast<std::uint32_t>(ids.size()));
      next_cls[s] = it->second;
    }
    // Class counts can only grow; identical counts with a relabeling still
    // mean a stable partition, so compare counts rather than raw labels.
    if (next_cls == cls || ids.size() == num_classes(cls)) {
      // Renumber densely in first-occurrence order for determinism.
      std::unordered_map<std::uint32_t, std::uint32_t> renumber;
      for (std::uint64_t s = 0; s < n; ++s) {
        const auto [it, ins] = renumber.emplace(
            next_cls[s], static_cast<std::uint32_t>(renumber.size()));
        next_cls[s] = it->second;
      }
      return next_cls;
    }
    std::swap(cls, next_cls);
  }
}

/// The machine over the classes of `classes`: class c takes the rows of its
/// first state s, successors mapped through `classes` and outputs written
/// by out_row(s, dst) — any representative gives the same rows.
template <typename Next, typename OutRow>
Stg quotient_machine(const std::vector<std::uint32_t>& classes,
                     const Next* next, std::uint64_t ni, unsigned out_bits,
                     OutRow out_row) {
  const std::uint32_t k = num_classes(classes);
  std::vector<std::uint32_t> q_next(std::size_t{k} * ni);
  std::vector<std::uint64_t> q_out(q_next.size());
  std::vector<bool> seen(k, false);
  for (std::uint64_t s = 0; s < classes.size(); ++s) {
    const std::uint32_t c = classes[s];
    if (seen[c]) continue;
    seen[c] = true;
    for (std::uint64_t a = 0; a < ni; ++a) {
      q_next[c * ni + a] = classes[next[s * ni + a]];
    }
    out_row(s, q_out.data() + c * ni);
  }
  return Stg(k, ni, out_bits, std::move(q_next), std::move(q_out));
}

}  // namespace rtv
