#include "retime/mcmf.hpp"

#include <algorithm>
#include <functional>
#include <limits>

#include "retime/difference_constraints.hpp"
#include "util/error.hpp"

namespace rtv {

namespace {
constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
constexpr std::uint32_t kNone = 0xffffffffu;
}

MinCostFlow::MinCostFlow(std::uint32_t num_nodes)
    : n_(num_nodes), first_(num_nodes, kNone), potential_(num_nodes, 0) {}

std::uint32_t MinCostFlow::add_arc(std::uint32_t from, std::uint32_t to,
                                   std::int64_t capacity, int cost) {
  RTV_REQUIRE(from < n_ && to < n_, "arc endpoint out of range");
  RTV_REQUIRE(capacity >= 0, "negative capacity");
  if (cost < 0) has_negative_cost_ = true;
  const auto id = static_cast<std::uint32_t>(arcs_.size() / 2);
  arcs_.push_back(Arc{to, first_[from], capacity, cost});
  first_[from] = 2 * id;
  arcs_.push_back(Arc{from, first_[to], 0, -cost});
  first_[to] = 2 * id + 1;
  return id;
}

void MinCostFlow::bellman_ford_potentials() {
  // Any potentials with pi(to) <= pi(from) + cost on every residual arc do.
  DifferenceConstraints system(n_);
  for (std::size_t e = 0; e < arcs_.size(); ++e) {
    if (arcs_[e].capacity > 0) {
      system.add(arcs_[e].to, arcs_[e ^ 1].to,
                 static_cast<int>(arcs_[e].cost));
    }
  }
  RTV_CHECK_MSG(system.solve(), "negative-cost cycle in min-cost flow");
  potential_.assign(system.solution().begin(), system.solution().end());
}

bool MinCostFlow::admissible(std::uint32_t e) const {
  const Arc& a = arcs_[e];
  return a.capacity > 0 &&
         a.cost + potential_[arcs_[e ^ 1].to] - potential_[a.to] == 0;
}

bool MinCostFlow::dijkstra(std::uint32_t source, std::uint32_t sink) {
  using Item = std::pair<std::int64_t, std::uint32_t>;
  dist_.assign(n_, kInf);
  heap_.clear();
  dist_[source] = 0;
  heap_.emplace_back(0, source);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<Item>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[u]) continue;
    // Every node still unsettled has distance >= dist[sink], which is all
    // the clamped update below needs to know about it.
    if (u == sink) break;
    for (std::uint32_t e = first_[u]; e != kNone; e = arcs_[e].next) {
      const Arc& a = arcs_[e];
      if (a.capacity <= 0) continue;
      const std::int64_t reduced = a.cost + potential_[u] - potential_[a.to];
      RTV_CHECK_MSG(reduced >= 0, "negative reduced cost in Dijkstra");
      if (d + reduced < dist_[a.to]) {
        dist_[a.to] = d + reduced;
        heap_.emplace_back(dist_[a.to], a.to);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<Item>());
      }
    }
  }
  if (dist_[sink] >= kInf) return false;
  // Clamping to dist[sink] keeps reduced costs non-negative on every
  // residual arc, including arcs leaving nodes the search did not settle,
  // and leaves zero reduced cost exactly on the shortest source-sink paths.
  for (std::uint32_t v = 0; v < n_; ++v) {
    potential_[v] += std::min(dist_[v], dist_[sink]);
  }
  return true;
}

bool MinCostFlow::build_levels(std::uint32_t source, std::uint32_t sink) {
  level_.assign(n_, -1);
  queue_.assign(1, source);
  level_[source] = 0;
  for (std::size_t i = 0; i < queue_.size(); ++i) {
    const std::uint32_t u = queue_[i];
    for (std::uint32_t e = first_[u]; e != kNone; e = arcs_[e].next) {
      if (level_[arcs_[e].to] < 0 && admissible(e)) {
        level_[arcs_[e].to] = level_[u] + 1;
        queue_.push_back(arcs_[e].to);
      }
    }
  }
  return level_[sink] >= 0;
}

std::int64_t MinCostFlow::blocking_flow(std::uint32_t source,
                                        std::uint32_t sink, std::int64_t limit,
                                        std::int64_t& cost) {
  current_arc_ = first_;
  path_.clear();
  std::int64_t pushed = 0;
  std::uint32_t u = source;
  while (pushed < limit) {
    if (u == sink) {
      std::int64_t push = limit - pushed;
      for (const std::uint32_t e : path_) push = std::min(push, arcs_[e].capacity);
      for (const std::uint32_t e : path_) {
        arcs_[e].capacity -= push;
        arcs_[e ^ 1].capacity += push;
        cost += push * arcs_[e].cost;
      }
      pushed += push;
      path_.clear();
      u = source;
      continue;
    }
    std::uint32_t& e = current_arc_[u];
    while (e != kNone &&
           !(level_[arcs_[e].to] == level_[u] + 1 && admissible(e))) {
      e = arcs_[e].next;
    }
    if (e != kNone) {
      path_.push_back(e);
      u = arcs_[e].to;
      continue;
    }
    level_[u] = -1;  // no augmenting path goes on through u this phase
    if (path_.empty()) break;
    u = arcs_[path_.back() ^ 1].to;
    path_.pop_back();
  }
  return pushed;
}

MinCostFlow::Result MinCostFlow::solve(std::uint32_t source,
                                       std::uint32_t sink,
                                       std::int64_t max_flow) {
  RTV_REQUIRE(source < n_ && sink < n_ && source != sink,
              "bad source/sink");
  if (has_negative_cost_) bellman_ford_potentials();

  // Primal-dual: one Dijkstra per phase reprices the residual graph, then
  // a max flow over the zero-reduced-cost arcs saturates every shortest
  // augmenting path of that length at once.
  Result result;
  while (result.flow < max_flow && dijkstra(source, sink)) {
    while (result.flow < max_flow && build_levels(source, sink)) {
      result.flow +=
          blocking_flow(source, sink, max_flow - result.flow, result.cost);
    }
  }
  return result;
}

std::int64_t MinCostFlow::flow_on(std::uint32_t id) const {
  RTV_REQUIRE(id < arcs_.size() / 2, "arc id out of range");
  return arcs_[2 * id + 1].capacity;  // the reverse arc holds the flow
}

}  // namespace rtv
