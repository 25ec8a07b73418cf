// Initializing (synchronizing) sequences: an input sequence initializes a
// design iff it drives every power-up state to one single state. Figure 2 of
// the paper shows design D initialized by the length-1 sequence "0" while
// the retimed design C is not — find_initializing_sequence makes that
// observation executable.

#include <deque>
#include <unordered_set>

#include "stg/stg.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace rtv {

namespace {

using StateSet = std::vector<std::uint64_t>;

std::size_t set_count(const StateSet& set) {
  std::size_t n = 0;
  for (const std::uint64_t w : set) n += static_cast<std::size_t>(popcount64(w));
  return n;
}

StateSet image(const Stg& stg, const StateSet& set, std::uint64_t input) {
  StateSet next(set.size(), 0);
  for (std::uint64_t s = 0; s < stg.num_states(); ++s) {
    if (!get_bit(set[s / 64], s % 64)) continue;
    const std::uint32_t t = stg.next_state(s, input);
    next[t / 64] |= (1ULL << (t % 64));
  }
  return next;
}

StateSet full_set(const Stg& stg) {
  StateSet set(words_for_bits(stg.num_states()), 0);
  for (std::uint64_t s = 0; s < stg.num_states(); ++s) {
    set[s / 64] |= (1ULL << (s % 64));
  }
  return set;
}

}  // namespace

bool initializes(const Stg& stg, const std::vector<std::uint64_t>& inputs) {
  StateSet set = full_set(stg);
  for (const std::uint64_t a : inputs) set = image(stg, set, a);
  return set_count(set) == 1;
}

bool find_initializing_sequence(const Stg& stg, unsigned max_len,
                                std::vector<std::uint64_t>* sequence) {
  struct Entry {
    StateSet set;
    std::vector<std::uint64_t> path;
  };
  std::unordered_set<StateSet, WordsHash> visited;
  std::deque<Entry> queue;
  StateSet start = full_set(stg);
  if (set_count(start) == 1) {
    if (sequence != nullptr) sequence->clear();
    return true;
  }
  visited.insert(start);
  queue.push_back({std::move(start), {}});
  while (!queue.empty()) {
    Entry entry = std::move(queue.front());
    queue.pop_front();
    if (entry.path.size() >= max_len) continue;
    for (std::uint64_t a = 0; a < stg.num_inputs(); ++a) {
      StateSet next = image(stg, entry.set, a);
      if (set_count(next) == 1) {
        if (sequence != nullptr) {
          *sequence = entry.path;
          sequence->push_back(a);
        }
        return true;
      }
      if (visited.insert(next).second) {
        Entry e;
        e.path = entry.path;
        e.path.push_back(a);
        e.set = std::move(next);
        queue.push_back(std::move(e));
      }
    }
  }
  return false;
}

}  // namespace rtv
