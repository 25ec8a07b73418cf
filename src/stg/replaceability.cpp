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
// reachable iff some pair with an empty set is. The sets are interned, and
// the image of a set under an input, split by D's output, is computed once
// however many C states share the set.

#include <algorithm>
#include <bit>

#include "stg/refine.hpp"
#include "stg/stg.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace rtv {

std::vector<bool> implied_states(const Stg& c, const Stg& d,
                                 ResourceBudget* budget) {
  RTV_REQUIRE(c.compatible_with(d), "implies on incompatible machines");
  const Stg u = Stg::disjoint_union(c, d);
  const std::vector<std::uint32_t> cls = equivalence_classes(u, budget);
  std::vector<bool> has_d_state(num_classes(cls), false);
  for (std::uint64_t s = 0; s < d.num_states(); ++s) {
    has_d_state[cls[c.num_states() + s]] = true;
  }
  std::vector<bool> matched(c.num_states());
  for (std::uint64_t s = 0; s < c.num_states(); ++s) {
    matched[s] = has_d_state[cls[s]];
  }
  return matched;
}

bool implies(const Stg& c, const Stg& d, ResourceBudget* budget) {
  const std::vector<bool> matched = implied_states(c, d, budget);
  return std::find(matched.begin(), matched.end(), false) == matched.end();
}

bool find_safe_replacement_violation(const Stg& c, const Stg& d,
                                     SafeReplacementViolation* witness,
                                     ResourceBudget* budget) {
  RTV_REQUIRE(c.compatible_with(d), "safe_replacement on incompatible machines");
  const std::uint64_t nd = d.num_states(), ni = c.num_inputs();
  const std::size_t set_words = words_for_bits(nd);
  constexpr std::uint32_t kNone = 0xffffffffu;  // also: a start pair's parent
  // Subsets of at most this many D states are imaged per pair, as a
  // singleton's image is cheaper to build than to look up; larger ones
  // once per (input, D output) in the memo (docs/performance.md).
  constexpr std::uint32_t kDirect = 2;

  // D subsets, interned: subset x is sets[x * set_words, (x + 1) * set_words)
  // with set_size[x] members. Ids are canonical, so pair (C state, subset id)
  // stands for the pair (C state, D set) one to one.
  std::vector<std::uint64_t> sets;
  std::vector<std::uint32_t> set_size, first_run;  // first_run: see the memo
  IdSet set_ids;
  // The id of the subset built at sets' tail, dropping the tail if it is
  // not new.
  const auto intern_set = [&](std::uint32_t members) {
    const auto id = static_cast<std::uint32_t>(set_size.size());
    const std::uint32_t x = set_ids.intern_words(
        sets.data() + std::size_t{id} * set_words, set_words, sets.data(), id);
    if (x == id) {
      set_size.push_back(members);
      first_run.push_back(kNone);
    } else {
      sets.resize(sets.size() - set_words);
    }
    return x;
  };
  // Adds D state t to the subset at sets' tail; returns whether it is new.
  const auto add_to_tail = [&](std::uint32_t t) {
    std::uint64_t& w = sets[sets.size() - set_words + t / 64];
    const std::uint64_t bit = 1ULL << (t % 64);
    const bool fresh = (w & bit) == 0;
    w |= bit;
    return fresh;
  };

  // Pairs (C state << 32 | subset id), numbered in discovery order, which
  // is BFS order, so the vector is also the queue; parent/via link each
  // pair to the pair and input it was reached by.
  std::vector<std::uint64_t> pairs;
  std::vector<std::uint32_t> parent;
  std::vector<std::uint64_t> via;
  IdSet pair_ids;
  const auto intern_pair = [&](std::uint64_t s1, std::uint32_t x,
                               std::uint32_t from, std::uint64_t a) {
    const std::uint64_t key = s1 << 32 | x;
    const auto id = static_cast<std::uint32_t>(pairs.size());
    if (pair_ids.intern(key, id, [&](std::uint32_t y) {
          return pairs[y] == key;
        }) == id) {
      pairs.push_back(key);
      parent.push_back(from);
      via.push_back(a);
    }
  };

  // The memo: subset x's images under input a are the entries
  // images[runs[first_run[x] + a]], sorted by D output, one per output some
  // member gives. A subset's |Σ| runs are allocated when its first pair is
  // expanded, and that expansion images it under every input (or finds the
  // violation), so the memo grows with the images computed.
  struct Image {
    std::uint64_t out;
    std::uint32_t set;
  };
  struct Run {
    std::uint32_t begin = kNone, end = 0;
  };
  std::vector<Image> images;
  std::vector<Run> runs;

  for (std::size_t w = 0; w < set_words; ++w) {
    sets.push_back(low_mask(static_cast<unsigned>(
        std::min<std::uint64_t>(nd - 64 * w, 64))));
  }
  const std::uint32_t full = intern_set(static_cast<std::uint32_t>(nd));
  for (std::uint64_t s1 = 0; s1 < c.num_states(); ++s1) {
    intern_pair(s1, full, kNone, 0);
  }

  std::vector<std::uint32_t> members;
  std::vector<std::pair<std::uint64_t, std::uint32_t>> moves;  // (out, next)
  for (std::uint32_t i = 0; i < pairs.size(); ++i) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/subset-pair");
    const auto s1 = static_cast<std::uint32_t>(pairs[i] >> 32);
    const auto x = static_cast<std::uint32_t>(pairs[i]);
    const std::uint64_t* c_out = c.output_row(s1);
    const std::uint32_t* c_next = c.next_row(s1);
    const bool direct = set_size[x] <= kDirect;
    if (direct || first_run[x] == kNone) {
      members.clear();
      const std::uint64_t* set = sets.data() + std::size_t{x} * set_words;
      for (std::size_t w = 0; w < set_words; ++w) {
        for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
          members.push_back(static_cast<std::uint32_t>(
              64 * w + static_cast<unsigned>(std::countr_zero(bits))));
        }
      }
    }
    if (!direct && first_run[x] == kNone) {
      first_run[x] = static_cast<std::uint32_t>(runs.size());
      runs.resize(runs.size() + ni);
    }
    for (std::uint64_t a = 0; a < ni; ++a) {
      std::uint32_t next = kNone;  // the image's subset id; kNone if empty
      if (direct) {
        sets.resize(sets.size() + set_words, 0);
        std::uint32_t count = 0;
        for (const std::uint32_t s0 : members) {
          if (d.output_row(s0)[a] == c_out[a]) {
            count += add_to_tail(d.next_row(s0)[a]);
          }
        }
        if (count != 0) {
          next = intern_set(count);
        } else {
          sets.resize(sets.size() - set_words);
        }
      } else {
        Run& run = runs[first_run[x] + a];
        if (run.begin == kNone) {
          // Image x under a once, split by D's output.
          moves.clear();
          for (const std::uint32_t s0 : members) {
            moves.emplace_back(d.output_row(s0)[a], d.next_row(s0)[a]);
          }
          std::ranges::sort(moves, {}, &std::pair<std::uint64_t,
                                                  std::uint32_t>::first);
          run.begin = static_cast<std::uint32_t>(images.size());
          for (auto m = moves.begin(); m != moves.end();) {
            sets.resize(sets.size() + set_words, 0);
            std::uint32_t count = 0;
            const std::uint64_t out = m->first;
            for (; m != moves.end() && m->first == out; ++m) {
              count += add_to_tail(m->second);
            }
            images.push_back({out, intern_set(count)});
          }
          run.end = static_cast<std::uint32_t>(images.size());
        }
        const auto hit = std::ranges::lower_bound(
            images.begin() + run.begin, images.begin() + run.end, c_out[a],
            {}, &Image::out);
        if (hit != images.begin() + run.end && hit->out == c_out[a]) {
          next = hit->set;
        }
      }
      if (next == kNone) {
        if (witness != nullptr) {
          witness->inputs = {a};
          std::uint32_t p = i;
          for (; parent[p] != kNone; p = parent[p]) {
            witness->inputs.push_back(via[p]);
          }
          std::reverse(witness->inputs.begin(), witness->inputs.end());
          witness->c_start = static_cast<std::uint32_t>(pairs[p] >> 32);
        }
        return true;
      }
      intern_pair(c_next[a], next, i, a);
    }
  }
  return false;
}

bool safe_replacement(const Stg& c, const Stg& d, ResourceBudget* budget) {
  return !find_safe_replacement_violation(c, d, nullptr, budget);
}

}  // namespace rtv
