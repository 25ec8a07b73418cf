#pragma once
// Generic min-cost max-flow, primal-dual: each phase runs one Dijkstra over
// Johnson-reduced costs to reprice the residual graph, then pushes a
// blocking flow (BFS levels plus a DFS with current-arc pointers) over the
// arcs whose reduced cost is zero. Used as the LP engine behind min-area
// retiming (the dual of the register-minimization LP is a transshipment
// problem); the retimer reads lags off the flow by complementary slackness,
// not off this class's potentials.

#include <cstdint>
#include <utility>
#include <vector>

namespace rtv {

class MinCostFlow {
 public:
  explicit MinCostFlow(std::uint32_t num_nodes);

  /// Adds a directed arc; returns its id. cost may be any integer >= 0
  /// for the Dijkstra-with-potentials fast path; negative costs are handled
  /// by a Bellman–Ford bootstrap of the potentials.
  std::uint32_t add_arc(std::uint32_t from, std::uint32_t to,
                        std::int64_t capacity, int cost);

  /// Sends up to max_flow units from source to sink; returns (flow, cost).
  struct Result {
    std::int64_t flow = 0;
    std::int64_t cost = 0;
  };
  Result solve(std::uint32_t source, std::uint32_t sink,
               std::int64_t max_flow);

  /// Flow on arc `id` after solve().
  std::int64_t flow_on(std::uint32_t id) const;

 private:
  /// Arcs 2i and 2i + 1 are arc i and its residual reverse; `next` links
  /// the arcs leaving the same node (forward star).
  struct Arc {
    std::uint32_t to;
    std::uint32_t next;
    std::int64_t capacity;  ///< residual capacity
    std::int64_t cost;
  };

  bool admissible(std::uint32_t e) const;
  bool dijkstra(std::uint32_t source, std::uint32_t sink);
  bool build_levels(std::uint32_t source, std::uint32_t sink);
  std::int64_t blocking_flow(std::uint32_t source, std::uint32_t sink,
                             std::int64_t limit, std::int64_t& cost);
  void bellman_ford_potentials();

  std::uint32_t n_;
  std::vector<Arc> arcs_;
  std::vector<std::uint32_t> first_;
  std::vector<std::int64_t> potential_;
  bool has_negative_cost_ = false;

  // Per-phase scratch, reused across phases.
  std::vector<std::int64_t> dist_;
  std::vector<std::pair<std::int64_t, std::uint32_t>> heap_;
  std::vector<int> level_;
  std::vector<std::uint32_t> queue_;
  std::vector<std::uint32_t> current_arc_;
  std::vector<std::uint32_t> path_;
};

}  // namespace rtv
