#pragma once
// The Leiserson–Saxe retiming graph (paper Section 3.1, [LS83]).
//
// Vertices are the combinational cells of a netlist plus the distinguished
// `host` vertex (index 0) that absorbs primary inputs and outputs; each
// netlist wire chain (output port — latch* — input pin) becomes a directed
// edge whose weight is the number of latches on the chain. As the paper's
// Figure 4 demonstrates, this model cannot express where latches sit
// relative to a fanout junction — two observably different netlists can map
// to the same graph — which is exactly why the move-level model in
// retime/moves.hpp exists. With junctions represented as JUNC *vertices*
// (our default netlist normal form) the ambiguity disappears.

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"

namespace rtv {

/// Vertex propagation-delay model d(v) >= 0 (integer delays keep the
/// min-period search exact).
enum class DelayModel {
  kUnit,       ///< every gate/table cell 1; buf/junc/const 0; host 0
  kZero,       ///< all zero (pure register-count experiments)
};

int vertex_delay(const Netlist& netlist, NodeId node, DelayModel model);

class RetimeGraph {
 public:
  /// The host is split into a source side (feeding primary inputs) and a
  /// sink side (absorbing primary outputs), both with lag fixed at 0. This
  /// is equivalent to Leiserson–Saxe's single zero-lag host vertex but keeps
  /// the zero-weight subgraph acyclic when the circuit has combinational
  /// input-to-output paths.
  static constexpr std::uint32_t kHostSource = 0;
  static constexpr std::uint32_t kHostSink = 1;

  struct Edge {
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    int weight = 0;        ///< latch count on the wire chain
    PortRef src_port;      ///< origin netlist port (PI port or cell port)
    PinRef dst_pin;        ///< origin netlist pin (PO pin or cell pin)
  };

  /// Builds the graph of a netlist. Every input pin must be connected.
  static RetimeGraph from_netlist(const Netlist& netlist,
                                  DelayModel model = DelayModel::kUnit);

  std::uint32_t num_vertices() const { return static_cast<std::uint32_t>(delay_.size()); }
  std::size_t num_edges() const { return edges_.size(); }
  const Edge& edge(std::size_t i) const { return edges_[i]; }
  const std::vector<Edge>& edges() const { return edges_; }
  int delay(std::uint32_t v) const { return delay_[v]; }

  /// Netlist node behind a vertex (invalid for kHost).
  NodeId vertex_origin(std::uint32_t v) const { return origin_[v]; }
  /// Vertex of a netlist combinational node.
  std::uint32_t vertex_of(NodeId node) const;

  /// Out-edge / in-edge indices per vertex.
  const std::vector<std::uint32_t>& out_edges(std::uint32_t v) const {
    return out_[v];
  }
  const std::vector<std::uint32_t>& in_edges(std::uint32_t v) const {
    return in_[v];
  }

  /// Total latches (sum of edge weights).
  std::int64_t total_weight() const;

  /// A retiming (lag assignment, lag[kHost] == 0) is legal iff every
  /// retimed weight w_r(e) = w(e) + lag(to) - lag(from) is non-negative.
  bool legal_retiming(const std::vector<int>& lag) const;

  /// Retimed weight of edge i under a lag assignment.
  int retimed_weight(std::size_t i, const std::vector<int>& lag) const;

  /// Sum of retimed weights (register count after retiming).
  std::int64_t retimed_total_weight(const std::vector<int>& lag) const;

  /// Clock period: maximum combinational path delay, i.e. the longest
  /// vertex-delay sum along paths of zero-weight edges (plus each vertex's
  /// own delay). `lag` optional: empty means current weights.
  int clock_period(const std::vector<int>& lag = {}) const;

  /// Structural sanity: graph vertex/edge cross-links consistent and every
  /// directed cycle carries at least one register.
  void check_valid() const;

  std::string summary() const;

  /// Degree imbalance a_v = indeg(v) - outdeg(v); the register-count
  /// objective of min-area retiming is sum_v a_v * lag(v) + const.
  std::vector<int> degree_imbalance() const;

 private:
  friend struct RetimeGraphBuilder;

  std::vector<int> delay_;
  std::vector<NodeId> origin_;
  std::vector<std::uint32_t> vertex_of_slot_;
  std::vector<Edge> edges_;
  std::vector<std::vector<std::uint32_t>> out_;
  std::vector<std::vector<std::uint32_t>> in_;
};

/// The lag that retimes `a` into `b`, solved from the Leiserson–Saxe
/// relation w_b(e) = w_a(e) + lag(to) - lag(from), 0 at the hosts and at one
/// anchor per host-disconnected component; sequence_retiming(a, graph_a,
/// lag) then reaches b's graph. nullopt unless `a` is junction-normal with a
/// latch on every cycle and `b` has a's cells (by name: kind, pins, ports,
/// table) and edges (source port, or primary-input index), and every moved
/// cell has an edge out of every port. `graph_a` receives a's graph.
std::optional<std::vector<int>> recover_lag(const Netlist& a, const Netlist& b,
                                            RetimeGraph* graph_a = nullptr);

}  // namespace rtv
