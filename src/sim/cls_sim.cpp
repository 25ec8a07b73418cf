#include "sim/cls_sim.hpp"

namespace rtv {

ClsSimulator::ClsSimulator(const Netlist& netlist)
    : netlist_(netlist),
      ports_(netlist),
      topo_(combinational_topo_order(netlist)),
      io_pos_(netlist.num_slots(), 0),
      state_(netlist.latches().size(), Trit::kX),
      values_(ports_.size(), Trit::kX) {
  const auto fill = [&](const std::vector<NodeId>& ids) {
    for (std::uint32_t i = 0; i < ids.size(); ++i) io_pos_[ids[i].value] = i;
  };
  fill(netlist.primary_inputs());
  fill(netlist.primary_outputs());
  fill(netlist.latches());
}

void ClsSimulator::reset_to_all_x() {
  state_.assign(state_.size(), Trit::kX);
}

void ClsSimulator::set_state(const Trits& latch_values) {
  RTV_REQUIRE(latch_values.size() == state_.size(),
              "state vector size mismatch");
  state_ = latch_values;
}

bool ClsSimulator::is_fully_initialized() const {
  for (Trit t : state_) {
    if (!is_definite(t)) return false;
  }
  return true;
}

Trits ClsSimulator::step(const Trits& inputs) {
  Trits outputs, next_state;
  eval(state_, inputs, outputs, next_state);
  state_ = std::move(next_state);
  return outputs;
}

TritsSeq ClsSimulator::run(const TritsSeq& inputs) {
  TritsSeq outputs;
  outputs.reserve(inputs.size());
  for (const Trits& in : inputs) outputs.push_back(step(in));
  return outputs;
}

void ClsSimulator::eval(const Trits& state, const Trits& inputs,
                        Trits& outputs, Trits& next_state) const {
  RTV_REQUIRE(state.size() == netlist_.latches().size(),
              "state vector size mismatch");
  RTV_REQUIRE(inputs.size() == netlist_.primary_inputs().size(),
              "input vector size mismatch");
  outputs.assign(netlist_.primary_outputs().size(), Trit::kX);
  next_state.assign(state.size(), Trit::kX);

  std::vector<Trit>& values = values_;
  const auto value_of = [&](PortRef p) -> Trit {
    return values[ports_.index(p)];
  };

  for (const NodeId id : topo_) {
    const Node& n = netlist_.node(id);
    const std::uint32_t base = ports_.index(PortRef(id, 0));
    switch (n.kind) {
      case CellKind::kInput:
        values[base] = inputs[io_pos_[id.value]];
        break;
      case CellKind::kLatch:
        values[base] = state[io_pos_[id.value]];
        break;
      case CellKind::kOutput:
        outputs[io_pos_[id.value]] = value_of(n.fanin[0]);
        break;
      case CellKind::kConst0:
        values[base] = Trit::kZero;
        break;
      case CellKind::kConst1:
        values[base] = Trit::kOne;
        break;
      case CellKind::kBuf:
        values[base] = value_of(n.fanin[0]);
        break;
      case CellKind::kNot:
        values[base] = not3(value_of(n.fanin[0]));
        break;
      case CellKind::kAnd:
      case CellKind::kNand: {
        Trit acc = Trit::kOne;
        for (const PortRef& d : n.fanin) acc = and3(acc, value_of(d));
        values[base] = (n.kind == CellKind::kNand) ? not3(acc) : acc;
        break;
      }
      case CellKind::kOr:
      case CellKind::kNor: {
        Trit acc = Trit::kZero;
        for (const PortRef& d : n.fanin) acc = or3(acc, value_of(d));
        values[base] = (n.kind == CellKind::kNor) ? not3(acc) : acc;
        break;
      }
      case CellKind::kXor:
      case CellKind::kXnor: {
        Trit acc = Trit::kZero;
        for (const PortRef& d : n.fanin) acc = xor3(acc, value_of(d));
        values[base] = (n.kind == CellKind::kXnor) ? not3(acc) : acc;
        break;
      }
      case CellKind::kMux:
        values[base] = mux3(value_of(n.fanin[0]), value_of(n.fanin[1]),
                            value_of(n.fanin[2]));
        break;
      case CellKind::kJunc: {
        const Trit v = value_of(n.fanin[0]);
        for (std::uint32_t p = 0; p < n.num_ports(); ++p) values[base + p] = v;
        break;
      }
      case CellKind::kTable: {
        table_in_scratch_.resize(n.num_pins());
        for (std::uint32_t pin = 0; pin < n.num_pins(); ++pin) {
          table_in_scratch_[pin] = value_of(n.fanin[pin]);
        }
        const Trits out =
            netlist_.table(n.table).eval_ternary(table_in_scratch_);
        for (std::uint32_t p = 0; p < n.num_ports(); ++p) {
          values[base + p] = out[p];
        }
        break;
      }
    }
  }

  for (std::uint32_t i = 0; i < netlist_.latches().size(); ++i) {
    const Node& latch = netlist_.node(netlist_.latches()[i]);
    next_state[i] = values[ports_.index(latch.fanin[0])];
  }
}

}  // namespace rtv
