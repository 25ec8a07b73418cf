#pragma once
// The difference-constraint solver shared by FEAS, OPT and the min-area
// read-out: constraints x(u) - x(v) <= bound, solved by queue-based
// Bellman–Ford (SPFA) from all-zero labels, which yields the greatest
// solution x <= 0 whatever order constraints arrive or relax in.
// Constraints added after a solve() are absorbed warm: the next solve()
// starts from the previous labels (an upper bound on the new answer) and
// relaxes only from the new constraints' tails.

#include <cstdint>
#include <deque>
#include <vector>

namespace rtv {

class DifferenceConstraints {
 public:
  explicit DifferenceConstraints(std::uint32_t n);

  /// Adds x(u) - x(v) <= bound.
  void add(std::uint32_t u, std::uint32_t v, int bound);

  /// Relaxes to the greatest solution <= 0 of every constraint added so
  /// far. Returns false on a negative cycle (the system is infeasible).
  bool solve();

  /// Labels after a successful solve().
  const std::vector<int>& solution() const { return x_; }

 private:
  void enqueue(std::uint32_t v);
  bool parent_cycle();

  struct Arc {  ///< v -> head: x(head) <= x(v) + bound
    std::uint32_t head;
    std::uint32_t next;  ///< next arc out of the same tail
    int bound;
  };
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> first_;
  std::vector<int> x_;
  /// The tail whose arc last lowered each label. A cycle among parents is
  /// always negative; solve() looks for one every n relaxations.
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint32_t> stamp_;
  std::size_t relaxations_ = 0;
  std::deque<std::uint32_t> queue_;
  std::vector<bool> queued_;
};

}  // namespace rtv
