// Replaceability relations between designs (paper Section 3.3).
//
// implies (C ⊑ D): classical state-machine implication — every C state is
// Mealy-equivalent to some D state. Decided by refining the disjoint union
// of the two machines and checking each C class contains a D state.
//
// safe_replacement (C ≼ D) [PSAB94]: for any C state s1 and any input
// sequence, some D state matches s1's outputs on that sequence; the D state
// may depend on the sequence. Because "matches on π·a" implies "matches on
// π", the set of still-consistent D states shrinks monotonically along a
// run, so C ≼ D is decidable by a subset construction over pairs
// (current C state, set of consistent current D states): a violation is
// reachable iff some pair with an empty set is.

#include <algorithm>
#include <bit>

#include "stg/refine.hpp"
#include "stg/stg.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace rtv {

bool implies(const Stg& c, const Stg& d, ResourceBudget* budget) {
  RTV_REQUIRE(c.compatible_with(d), "implies on incompatible machines");
  const Stg u = Stg::disjoint_union(c, d);
  const std::vector<std::uint32_t> cls = equivalence_classes(u, budget);
  const std::uint32_t k = num_classes(cls);
  std::vector<bool> has_d_state(k, false);
  for (std::uint64_t s = 0; s < d.num_states(); ++s) {
    has_d_state[cls[c.num_states() + s]] = true;
  }
  for (std::uint64_t s = 0; s < c.num_states(); ++s) {
    if (!has_d_state[cls[s]]) return false;
  }
  return true;
}

bool find_safe_replacement_violation(const Stg& c, const Stg& d,
                                     SafeReplacementViolation* witness,
                                     ResourceBudget* budget) {
  RTV_REQUIRE(c.compatible_with(d), "safe_replacement on incompatible machines");
  const std::uint64_t nd = d.num_states();
  const std::size_t set_words = words_for_bits(nd);
  const std::size_t stride = 1 + set_words;  // C state, then the D-set bits
  constexpr std::uint32_t kStart = 0xffffffffu;

  // Pair i is arena[i * stride, (i + 1) * stride). Pairs are numbered in
  // discovery order, which is BFS order, so the arena is also the queue;
  // parent/via link each pair to the pair and input it was reached by.
  std::vector<std::uint64_t> arena;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint64_t> via;
  IdSet visited;
  // Keeps the candidate pair at the arena's tail if it is new.
  const auto intern = [&](std::uint32_t from, std::uint64_t a) {
    const auto id = static_cast<std::uint32_t>(parent.size());
    if (visited.intern_words(arena.data() + id * stride, stride, arena.data(),
                             id) == id) {
      parent.push_back(from);
      via.push_back(a);
    } else {
      arena.resize(arena.size() - stride);
    }
  };

  for (std::uint64_t s1 = 0; s1 < c.num_states(); ++s1) {
    arena.push_back(s1);
    for (std::size_t w = 0; w < set_words; ++w) {
      arena.push_back(low_mask(static_cast<unsigned>(std::min<std::uint64_t>(
          nd - 64 * w, 64))));
    }
    intern(kStart, 0);
  }

  std::vector<std::uint32_t> members;
  for (std::uint32_t i = 0; i < parent.size(); ++i) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/subset-pair");
    const std::uint64_t* pair = arena.data() + i * stride;
    const std::uint64_t* c_out = c.output_row(pair[0]);
    const std::uint32_t* c_next = c.next_row(pair[0]);
    members.clear();
    for (std::size_t w = 0; w < set_words; ++w) {
      for (std::uint64_t bits = pair[1 + w]; bits != 0; bits &= bits - 1) {
        members.push_back(static_cast<std::uint32_t>(
            64 * w + static_cast<unsigned>(std::countr_zero(bits))));
      }
    }
    for (std::uint64_t a = 0; a < c.num_inputs(); ++a) {
      const std::size_t tail = arena.size();
      arena.resize(tail + stride, 0);
      arena[tail] = c_next[a];
      bool empty = true;
      for (const std::uint32_t s0 : members) {
        if (d.output_row(s0)[a] != c_out[a]) continue;
        const std::uint32_t t = d.next_row(s0)[a];
        arena[tail + 1 + t / 64] |= 1ULL << (t % 64);
        empty = false;
      }
      if (empty) {
        if (witness != nullptr) {
          witness->inputs = {a};
          std::uint32_t p = i;
          for (; parent[p] != kStart; p = parent[p]) {
            witness->inputs.push_back(via[p]);
          }
          std::reverse(witness->inputs.begin(), witness->inputs.end());
          witness->c_start = static_cast<std::uint32_t>(arena[p * stride]);
        }
        return true;
      }
      intern(i, a);
    }
  }
  return false;
}

bool safe_replacement(const Stg& c, const Stg& d, ResourceBudget* budget) {
  return !find_safe_replacement_violation(c, d, nullptr, budget);
}

}  // namespace rtv
