#pragma once
// Moore partition refinement and the quotient machine over a plain
// next-state table, shared by equivalence_classes/quotient (minimize.cpp,
// 32-bit state ids) and Stg::extract_minimized (stg.cpp, 16-bit state ids),
// and the id set every STG interning loop uses. Private to src/stg.

#include <algorithm>
#include <vector>

#include "stg/stg.hpp"
#include "util/bits.hpp"

namespace rtv {

/// A set of ids whose keys live elsewhere (a state's row, a slice of an
/// arena): one flat slot array probed linearly, each slot an id and 32 bits
/// of its key's hash, so nothing is copied or allocated per entry.
class IdSet {
 public:
  /// The id in the set whose key equals the candidate's (same_key(id)),
  /// or `id` itself, inserted, if there is none.
  template <typename SameKey>
  std::uint32_t intern(std::uint64_t hash, std::uint32_t id,
                       SameKey same_key) {
    if (2 * (size_ + 1) > slots_.size()) {  // grow, re-placing every slot
      std::vector<Slot> old(std::max<std::size_t>(64, 2 * slots_.size()));
      old.swap(slots_);
      for (const Slot& s : old) {
        if (s.id1 != 0) find(s.tag, [](std::uint32_t) { return false; }) = s;
      }
    }
    const std::uint32_t tag = tag_of(hash);
    Slot& slot = find(tag, same_key);
    if (slot.id1 == 0) slot = {tag, id + 1}, ++size_;
    return slot.id1 - 1;
  }

  /// The 32 bits of a key's hash that a slot keeps.
  static std::uint32_t tag_of(std::uint64_t h) { return (h * kMix) >> 32; }

  /// intern() of the `n` words at `key`; id x's are at keys + x * n.
  std::uint32_t intern_words(const std::uint64_t* key, std::size_t n,
                             const std::uint64_t* keys, std::uint32_t id) {
    return intern(hash_words(key, n), id, [&](std::uint32_t x) {
      return std::equal(key, key + n, keys + x * n);
    });
  }

 private:
  struct Slot {
    std::uint32_t tag = 0, id1 = 0;  // id + 1; 0 marks an empty slot
  };
  static constexpr std::uint64_t kMix = 0x9e3779b97f4a7c15ULL;

  /// The slot of the id with this tag and key, else the empty slot for it.
  template <typename SameKey>
  Slot& find(std::uint32_t tag, SameKey same_key) {
    for (std::size_t i = tag;; ++i) {
      Slot& s = slots_[i & (slots_.size() - 1)];
      if (s.id1 == 0 || (s.tag == tag && same_key(s.id1 - 1))) return s;
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

/// The coarsest stable refinement of `cls` (dense class ids, one per state)
/// over next[state * ni + input], numbered by first occurrence. Each round
/// keeps in its class every state whose successor classes equal those of
/// the class's first state; only the others are interned, by representative
/// state, into new classes. A round that splits nothing is stable.
template <typename Next>
std::vector<std::uint32_t> refine_partition(std::vector<std::uint32_t> cls,
                                            const Next* next,
                                            std::uint64_t ni,
                                            ResourceBudget* budget) {
  const std::uint64_t n = cls.size();
  std::vector<std::uint32_t> first(num_classes(cls));  // per class
  for (auto s = n; s-- > 0;) first[cls[s]] = static_cast<std::uint32_t>(s);
  std::vector<std::uint32_t> next_cls(n);
  for (std::size_t classes = 0; classes != first.size();
       std::swap(cls, next_cls)) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/refine-iter");
    classes = first.size();
    // Same class and same successor classes, both under `cls`.
    const auto cls_of = [&](Next t) { return cls[t]; };
    const auto same = [&](std::uint64_t s, std::uint64_t t) {
      return cls[s] == cls[t] &&
             std::ranges::equal(next + s * ni, next + (s + 1) * ni,
                                next + t * ni, next + (t + 1) * ni, {},
                                cls_of, cls_of);
    };
    IdSet split;  // of the states that left their class, by signature
    for (std::uint64_t s = 0; s < n; ++s) {
      next_cls[s] = cls[s];
      if (same(s, first[cls[s]])) continue;
      std::uint64_t h = cls[s];
      for (const Next* r = next + s * ni; r != next + (s + 1) * ni; ++r) {
        h = (h ^ cls[*r]) * 1099511628211ULL;
      }
      const std::uint32_t t = split.intern(
          h, static_cast<std::uint32_t>(s),
          [&](std::uint32_t t) { return same(s, t); });
      if (t == s) first.push_back(t);
      next_cls[s] = t == s ? static_cast<std::uint32_t>(first.size() - 1)
                           : next_cls[t];
    }
  }
  // Renumber densely in first-occurrence order for determinism: first[c]
  // becomes c's id at c's first state, an id never above the state index.
  std::uint32_t k = 0;
  for (std::uint64_t s = 0; s < n; ++s) {
    if (first[cls[s]] == s) first[cls[s]] = k++;
  }
  for (std::uint32_t& c : cls) c = first[c];
  return cls;
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
