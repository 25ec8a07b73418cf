#include "retime/graph.hpp"

#include <algorithm>
#include <climits>
#include <sstream>
#include <string_view>
#include <unordered_map>

namespace rtv {

int vertex_delay(const Netlist& netlist, NodeId node, DelayModel model) {
  if (model == DelayModel::kZero) return 0;
  switch (netlist.kind(node)) {
    case CellKind::kBuf:
    case CellKind::kJunc:
    case CellKind::kConst0:
    case CellKind::kConst1:
      return 0;
    default:
      return 1;
  }
}

RetimeGraph RetimeGraph::from_netlist(const Netlist& netlist,
                                      DelayModel model) {
  RetimeGraph g;
  g.vertex_of_slot_.assign(netlist.num_slots(), 0);

  // Vertices 0/1 are the host source/sink (delay 0).
  g.delay_.push_back(0);
  g.origin_.push_back(NodeId());
  g.delay_.push_back(0);
  g.origin_.push_back(NodeId());
  for (std::uint32_t i = 0; i < netlist.num_slots(); ++i) {
    const NodeId id(i);
    if (netlist.is_dead(id) || !is_combinational(netlist.kind(id))) continue;
    g.vertex_of_slot_[i] = static_cast<std::uint32_t>(g.delay_.size());
    g.delay_.push_back(vertex_delay(netlist, id, model));
    g.origin_.push_back(id);
  }

  // One edge per wire chain ending at a combinational pin or a PO pin.
  // Walking backwards from the pin through the latch chain yields the
  // weight and the true source (combinational port, or PI -> host).
  const int max_chain = static_cast<int>(netlist.num_slots());
  const auto trace = [&](PinRef pin) -> Edge {
    Edge e;
    e.dst_pin = pin;
    e.to = is_combinational(netlist.kind(pin.node))
               ? g.vertex_of_slot_[pin.node.value]
               : kHostSink;  // primary output
    int latches = 0;
    PortRef drv = netlist.driver(pin);
    RTV_REQUIRE(drv.valid(), "retiming graph requires fully connected pins");
    while (netlist.kind(drv.node) == CellKind::kLatch && latches <= max_chain) {
      ++latches;
      drv = netlist.driver(PinRef(drv.node, 0));
      RTV_REQUIRE(drv.valid(), "latch with unconnected data pin");
    }
    // A chain longer than the netlist is a latch-only cycle into this pin.
    RTV_REQUIRE(latches <= max_chain, "latch-only cycle feeds a pin");
    e.weight = latches;
    e.src_port = drv;
    e.from = is_combinational(netlist.kind(drv.node))
                 ? g.vertex_of_slot_[drv.node.value]
                 : kHostSource;  // primary input
    return e;
  };

  for (std::uint32_t i = 0; i < netlist.num_slots(); ++i) {
    const NodeId id(i);
    if (netlist.is_dead(id)) continue;
    const CellKind k = netlist.kind(id);
    if (k == CellKind::kLatch) continue;  // interior of a chain
    if (is_combinational(k) || k == CellKind::kOutput) {
      for (std::uint32_t pin = 0; pin < netlist.num_pins(id); ++pin) {
        g.edges_.push_back(trace(PinRef(id, pin)));
      }
    }
  }

  g.out_.assign(g.num_vertices(), {});
  g.in_.assign(g.num_vertices(), {});
  for (std::uint32_t i = 0; i < g.edges_.size(); ++i) {
    g.out_[g.edges_[i].from].push_back(i);
    g.in_[g.edges_[i].to].push_back(i);
  }
  return g;
}

std::uint32_t RetimeGraph::vertex_of(NodeId node) const {
  RTV_REQUIRE(node.valid() && node.value < vertex_of_slot_.size(),
              "node out of range");
  const std::uint32_t v = vertex_of_slot_[node.value];
  RTV_REQUIRE(v >= 2 && origin_[v] == node,
              "node has no retiming-graph vertex");
  return v;
}

std::int64_t RetimeGraph::total_weight() const {
  std::int64_t total = 0;
  for (const Edge& e : edges_) total += e.weight;
  return total;
}

int RetimeGraph::retimed_weight(std::size_t i,
                                const std::vector<int>& lag) const {
  const Edge& e = edges_[i];
  return e.weight + lag[e.to] - lag[e.from];
}

bool RetimeGraph::legal_retiming(const std::vector<int>& lag) const {
  RTV_REQUIRE(lag.size() == num_vertices(), "lag vector size mismatch");
  if (lag[kHostSource] != 0 || lag[kHostSink] != 0) return false;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    if (retimed_weight(i, lag) < 0) return false;
  }
  return true;
}

std::int64_t RetimeGraph::retimed_total_weight(
    const std::vector<int>& lag) const {
  std::int64_t total = 0;
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    total += retimed_weight(i, lag);
  }
  return total;
}

int RetimeGraph::clock_period(const std::vector<int>& lag) const {
  const bool use_lag = !lag.empty();
  if (use_lag) {
    RTV_REQUIRE(lag.size() == num_vertices(), "lag vector size mismatch");
  }
  const auto weight = [&](std::size_t i) {
    return use_lag ? retimed_weight(i, lag) : edges_[i].weight;
  };

  // Longest path over the zero-weight subgraph via Kahn ordering; every
  // cycle carries a register, so this subgraph is acyclic.
  const std::uint32_t n = num_vertices();
  std::vector<std::uint32_t> indegree(n, 0);
  for (std::size_t i = 0; i < edges_.size(); ++i) {
    const int w = weight(i);
    RTV_REQUIRE(w >= 0, "clock_period on an illegal retiming");
    if (w == 0) ++indegree[edges_[i].to];
  }
  std::vector<std::uint32_t> ready;
  std::vector<int> arrival(n);
  for (std::uint32_t v = 0; v < n; ++v) {
    arrival[v] = delay_[v];
    if (indegree[v] == 0) ready.push_back(v);
  }
  int period = 0;
  std::size_t emitted = 0;
  while (!ready.empty()) {
    const std::uint32_t u = ready.back();
    ready.pop_back();
    ++emitted;
    period = std::max(period, arrival[u]);
    for (const std::uint32_t i : out_[u]) {
      if (weight(i) != 0) continue;
      const std::uint32_t v = edges_[i].to;
      arrival[v] = std::max(arrival[v], arrival[u] + delay_[v]);
      if (--indegree[v] == 0) ready.push_back(v);
    }
  }
  RTV_CHECK_MSG(emitted == n, "zero-weight subgraph has a cycle");
  return period;
}

void RetimeGraph::check_valid() const {
  const std::uint32_t n = num_vertices();
  RTV_REQUIRE(n >= 2 && !origin_[kHostSource].valid() &&
                  !origin_[kHostSink].valid(),
              "vertices 0/1 must be the host sides");
  for (const Edge& e : edges_) {
    RTV_REQUIRE(e.from < n && e.to < n, "edge endpoint out of range");
    RTV_REQUIRE(e.weight >= 0, "negative edge weight");
  }
  // Every cycle carries a register <=> the zero-weight subgraph is acyclic;
  // clock_period() checks exactly that.
  (void)clock_period();
}

std::string RetimeGraph::summary() const {
  std::ostringstream os;
  os << "retime graph: " << num_vertices() << " vertices, " << num_edges()
     << " edges, " << total_weight() << " registers, period "
     << clock_period();
  return os.str();
}

std::vector<int> RetimeGraph::degree_imbalance() const {
  std::vector<int> a(num_vertices(), 0);
  for (const Edge& e : edges_) {
    a[e.to] += 1;
    a[e.from] -= 1;
  }
  return a;
}

namespace {

constexpr std::uint32_t kNone = 0xffffffffu;

/// Name-matched image in `b` of each of `a`'s vertices (hosts to hosts),
/// or empty when some cell has no unique counterpart of the same shape.
std::vector<std::uint32_t> match_vertices(const Netlist& a,
                                          const RetimeGraph& ga,
                                          const Netlist& b,
                                          const RetimeGraph& gb) {
  std::unordered_map<std::string_view, std::uint32_t> by_name;
  by_name.reserve(gb.num_vertices());
  for (std::uint32_t v = 2; v < gb.num_vertices(); ++v) {
    const auto [it, fresh] = by_name.emplace(b.name(gb.vertex_origin(v)), v);
    if (!fresh) it->second = kNone;  // a repeated name matches nothing
  }
  std::vector<std::uint32_t> to_b{RetimeGraph::kHostSource,
                                  RetimeGraph::kHostSink};
  std::vector<bool> taken(gb.num_vertices(), false);
  for (std::uint32_t v = 2; v < ga.num_vertices(); ++v) {
    const Node& x = a.node(ga.vertex_origin(v));
    const auto it = by_name.find(x.name);
    if (x.name.empty() || it == by_name.end() || it->second == kNone ||
        taken[it->second]) {
      return {};
    }
    const Node& y = b.node(gb.vertex_origin(it->second));
    if (x.kind != y.kind || x.num_pins() != y.num_pins() ||
        x.num_ports() != y.num_ports() ||
        (x.kind == CellKind::kTable && a.table(x.table) != b.table(y.table))) {
      return {};
    }
    taken[it->second] = true;
    to_b.push_back(it->second);
  }
  return to_b;
}

}  // namespace

std::optional<std::vector<int>> recover_lag(const Netlist& a, const Netlist& b,
                                            RetimeGraph* graph_a) {
  // A retiming keeps the interface and every combinational cell, and `a`
  // must meet the sequencer's precondition. Once the edges match, b's
  // cycles are a's with the same weights, so b needs no check of its own.
  if (a.primary_inputs().size() != b.primary_inputs().size() ||
      a.primary_outputs().size() != b.primary_outputs().size() ||
      a.num_gates() != b.num_gates() || !a.is_junction_normal() ||
      !a.every_cycle_has_latch()) {
    return std::nullopt;
  }
  RetimeGraph ga, gb;
  try {
    ga = RetimeGraph::from_netlist(a);
    gb = RetimeGraph::from_netlist(b);
  } catch (const InvalidArgument&) {  // an unconnected pin, a latch-only cycle
    return std::nullopt;
  }
  const std::vector<std::uint32_t> to_b = match_vertices(a, ga, b, gb);
  if (to_b.empty()) return std::nullopt;

  // Edge bijection: a vertex's in-edges are in pin order (the host sink's
  // in primary-output order), and b's edge into each matched pin must come
  // from the image of the same source port, or the primary input of the
  // same index. delta is its weight change, lag(to) - lag(from).
  std::vector<std::uint32_t> pi_a(a.num_slots()), pi_b(b.num_slots());
  for (std::uint32_t k = 0; k < a.primary_inputs().size(); ++k) {
    pi_a[a.primary_inputs()[k].value] = pi_b[b.primary_inputs()[k].value] = k;
  }
  std::vector<int> delta(ga.num_edges());
  for (std::uint32_t v = RetimeGraph::kHostSink; v < ga.num_vertices(); ++v) {
    const std::vector<std::uint32_t>& into_a = ga.in_edges(v);
    const std::vector<std::uint32_t>& into_b = gb.in_edges(to_b[v]);
    for (std::size_t pin = 0; pin < into_a.size(); ++pin) {
      const RetimeGraph::Edge& e = ga.edge(into_a[pin]);
      const RetimeGraph::Edge& f = gb.edge(into_b[pin]);
      const bool same_source =
          e.from == RetimeGraph::kHostSource
              ? f.from == RetimeGraph::kHostSource &&
                    pi_b[f.src_port.node.value] == pi_a[e.src_port.node.value]
              : f.from == to_b[e.from] && f.src_port.port == e.src_port.port;
      if (!same_source) return std::nullopt;
      delta[into_a[pin]] = f.weight - e.weight;
    }
  }

  // One BFS from both hosts, then from one anchor per host-disconnected
  // component, all at lag 0; an edge whose delta disagrees with its
  // endpoints' lags is a weight change no retiming explains.
  const std::uint32_t n = ga.num_vertices();
  std::vector<int> lag(n, INT_MIN);
  std::vector<std::uint32_t> queue;
  queue.reserve(n);
  const auto reach = [&](std::uint32_t v, int value) {
    if (lag[v] != INT_MIN) return lag[v] == value;
    lag[v] = value;
    queue.push_back(v);
    return true;
  };
  reach(RetimeGraph::kHostSource, 0);
  reach(RetimeGraph::kHostSink, 0);
  for (std::uint32_t head = 0, anchor = 2;; reach(anchor, 0)) {
    for (; head < queue.size(); ++head) {
      const std::uint32_t u = queue[head];
      for (const std::uint32_t i : ga.out_edges(u)) {
        if (!reach(ga.edge(i).to, lag[u] + delta[i])) return std::nullopt;
      }
      for (const std::uint32_t i : ga.in_edges(u)) {
        if (!reach(ga.edge(i).from, lag[u] - delta[i])) return std::nullopt;
      }
    }
    while (anchor < n && lag[anchor] != INT_MIN) ++anchor;
    if (anchor == n) break;
  }
  RTV_CHECK(ga.legal_retiming(lag));
  // A moved cell needs a latch chain into an edge on every port.
  for (std::uint32_t v = 2; v < n; ++v) {
    const std::size_t ports = a.num_ports(ga.vertex_origin(v));
    if (lag[v] != 0 && (ports == 0 || ga.out_edges(v).size() != ports)) {
      return std::nullopt;
    }
  }
  if (graph_a != nullptr) *graph_a = std::move(ga);
  return lag;
}

}  // namespace rtv
