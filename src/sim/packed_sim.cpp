#include "sim/packed_sim.hpp"

#include <algorithm>

#include "util/bits.hpp"

namespace rtv {

PackedTernarySimulator::PackedTernarySimulator(const Netlist& netlist,
                                               unsigned lanes)
    : netlist_(netlist),
      ports_(netlist),
      topo_(combinational_topo_order(netlist)),
      io_pos_(netlist.num_slots(), 0),
      lanes_(lanes),
      words_(static_cast<unsigned>(words_for_bits(lanes))) {
  RTV_REQUIRE(lanes >= 1, "need at least one lane");
  const auto fill = [&](const std::vector<NodeId>& ids) {
    for (std::uint32_t i = 0; i < ids.size(); ++i) io_pos_[ids[i].value] = i;
  };
  fill(netlist.primary_inputs());
  fill(netlist.primary_outputs());
  fill(netlist.latches());
  state_.assign(static_cast<std::size_t>(num_latches()) * words_,
                trit_word_fill(Trit::kX));
  inputs_.assign(static_cast<std::size_t>(num_inputs()) * words_, TritWord{});
  outputs_.assign(static_cast<std::size_t>(num_outputs()) * words_,
                  TritWord{});
  values_.assign(static_cast<std::size_t>(ports_.size()) * words_, TritWord{});
}

void PackedTernarySimulator::reset_to_all_x() {
  std::fill(state_.begin(), state_.end(), trit_word_fill(Trit::kX));
}

void PackedTernarySimulator::set_state_trit(unsigned latch, unsigned lane,
                                            Trit value) {
  RTV_REQUIRE(latch < num_latches() && lane < lanes_, "index out of range");
  TritWord& w = state_[static_cast<std::size_t>(latch) * words_ + lane / 64];
  w = set_trit(w, lane % 64, value);
}

Trit PackedTernarySimulator::state_trit(unsigned latch, unsigned lane) const {
  RTV_REQUIRE(latch < num_latches() && lane < lanes_, "index out of range");
  return get_trit(state_[static_cast<std::size_t>(latch) * words_ + lane / 64],
                  lane % 64);
}

void PackedTernarySimulator::set_state_broadcast(const Trits& latch_values) {
  RTV_REQUIRE(latch_values.size() == num_latches(),
              "state vector size mismatch");
  for (unsigned l = 0; l < num_latches(); ++l) {
    const TritWord fill = trit_word_fill(latch_values[l]);
    for (unsigned w = 0; w < words_; ++w) {
      state_[static_cast<std::size_t>(l) * words_ + w] = fill;
    }
  }
}

Trits PackedTernarySimulator::state_lane(unsigned lane) const {
  Trits out(num_latches());
  for (unsigned l = 0; l < num_latches(); ++l) out[l] = state_trit(l, lane);
  return out;
}

TritWord* PackedTernarySimulator::state_words(unsigned latch) {
  RTV_REQUIRE(latch < num_latches(), "latch index out of range");
  return &state_[static_cast<std::size_t>(latch) * words_];
}

void PackedTernarySimulator::step_broadcast(const Trits& inputs) {
  RTV_REQUIRE(inputs.size() == num_inputs(), "input vector size mismatch");
  for (unsigned i = 0; i < num_inputs(); ++i) {
    const TritWord fill = trit_word_fill(inputs[i]);
    for (unsigned w = 0; w < words_; ++w) {
      inputs_[static_cast<std::size_t>(i) * words_ + w] = fill;
    }
  }
  eval_and_clock();
}

void PackedTernarySimulator::step_packed(const PackedTrits& inputs) {
  RTV_REQUIRE(inputs.num_signals() == num_inputs(),
              "packed input width mismatch");
  RTV_REQUIRE(inputs.words() == words_, "packed input lane-word mismatch");
  for (unsigned i = 0; i < num_inputs(); ++i) {
    const TritWord* src = inputs.signal_words(i);
    TritWord* dst = &inputs_[static_cast<std::size_t>(i) * words_];
    for (unsigned w = 0; w < words_; ++w) dst[w] = src[w];
  }
  eval_and_clock();
}

Trit PackedTernarySimulator::output_trit(unsigned output, unsigned lane) const {
  RTV_REQUIRE(output < num_outputs() && lane < lanes_, "index out of range");
  return get_trit(
      outputs_[static_cast<std::size_t>(output) * words_ + lane / 64],
      lane % 64);
}

const TritWord* PackedTernarySimulator::output_words(unsigned output) const {
  RTV_REQUIRE(output < num_outputs(), "output index out of range");
  return &outputs_[static_cast<std::size_t>(output) * words_];
}

void PackedTernarySimulator::eval_and_clock() {
  const unsigned nw = words_;
  TritWord* const vals = values_.data();
  const auto port_words = [&](PortRef p) -> TritWord* {
    return vals + static_cast<std::size_t>(ports_.index(p)) * nw;
  };

  for (const NodeId id : topo_) {
    const Node& n = netlist_.node(id);
    TritWord* const out =
        vals + static_cast<std::size_t>(ports_.index(PortRef(id, 0))) * nw;
    switch (n.kind) {
      case CellKind::kInput: {
        const TritWord* src =
            &inputs_[static_cast<std::size_t>(io_pos_[id.value]) * nw];
        for (unsigned w = 0; w < nw; ++w) out[w] = src[w];
        break;
      }
      case CellKind::kLatch: {
        const TritWord* src =
            &state_[static_cast<std::size_t>(io_pos_[id.value]) * nw];
        for (unsigned w = 0; w < nw; ++w) out[w] = src[w];
        break;
      }
      case CellKind::kOutput: {
        TritWord* dst =
            &outputs_[static_cast<std::size_t>(io_pos_[id.value]) * nw];
        const TritWord* src = port_words(n.fanin[0]);
        for (unsigned w = 0; w < nw; ++w) dst[w] = src[w];
        break;
      }
      case CellKind::kConst0:
        for (unsigned w = 0; w < nw; ++w) out[w] = TritWord{0, 0};
        break;
      case CellKind::kConst1:
        for (unsigned w = 0; w < nw; ++w) out[w] = TritWord{~0ULL, 0};
        break;
      case CellKind::kBuf: {
        const TritWord* a = port_words(n.fanin[0]);
        for (unsigned w = 0; w < nw; ++w) out[w] = a[w];
        break;
      }
      case CellKind::kNot: {
        const TritWord* a = port_words(n.fanin[0]);
        for (unsigned w = 0; w < nw; ++w) out[w] = not_w(a[w]);
        break;
      }
      case CellKind::kAnd:
      case CellKind::kNand: {
        for (unsigned w = 0; w < nw; ++w) out[w] = TritWord{~0ULL, 0};
        for (const PortRef& d : n.fanin) {
          const TritWord* a = port_words(d);
          for (unsigned w = 0; w < nw; ++w) out[w] = and_w(out[w], a[w]);
        }
        if (n.kind == CellKind::kNand) {
          for (unsigned w = 0; w < nw; ++w) out[w] = not_w(out[w]);
        }
        break;
      }
      case CellKind::kOr:
      case CellKind::kNor: {
        for (unsigned w = 0; w < nw; ++w) out[w] = TritWord{0, 0};
        for (const PortRef& d : n.fanin) {
          const TritWord* a = port_words(d);
          for (unsigned w = 0; w < nw; ++w) out[w] = or_w(out[w], a[w]);
        }
        if (n.kind == CellKind::kNor) {
          for (unsigned w = 0; w < nw; ++w) out[w] = not_w(out[w]);
        }
        break;
      }
      case CellKind::kXor:
      case CellKind::kXnor: {
        for (unsigned w = 0; w < nw; ++w) out[w] = TritWord{0, 0};
        for (const PortRef& d : n.fanin) {
          const TritWord* a = port_words(d);
          for (unsigned w = 0; w < nw; ++w) out[w] = xor_w(out[w], a[w]);
        }
        if (n.kind == CellKind::kXnor) {
          for (unsigned w = 0; w < nw; ++w) out[w] = not_w(out[w]);
        }
        break;
      }
      case CellKind::kMux: {
        const TritWord* s = port_words(n.fanin[0]);
        const TritWord* a = port_words(n.fanin[1]);
        const TritWord* b = port_words(n.fanin[2]);
        for (unsigned w = 0; w < nw; ++w) out[w] = mux_w(s[w], a[w], b[w]);
        break;
      }
      case CellKind::kJunc: {
        const TritWord* a = port_words(n.fanin[0]);
        for (std::uint32_t p = 0; p < n.num_ports(); ++p) {
          TritWord* dst = port_words(PortRef(id, p));
          for (unsigned w = 0; w < nw; ++w) dst[w] = a[w];
        }
        break;
      }
      case CellKind::kTable: {
        // Per-minterm plane masking: a minterm x is a possible completion
        // of a lane iff every pin could take x's bit there; the output is
        // definite where only 1-rows (or only 0-rows) remain possible.
        // Word-parallel form of TruthTable::eval_ternary.
        const TruthTable& t = netlist_.table(n.table);
        const unsigned pins = n.num_pins();
        const unsigned num_ports = n.num_ports();
        could1_.assign(num_ports, 0);
        could0_.assign(num_ports, 0);
        for (unsigned w = 0; w < nw; ++w) {
          std::fill(could1_.begin(), could1_.end(), 0);
          std::fill(could0_.begin(), could0_.end(), 0);
          for (std::uint64_t x = 0; x < pow2(pins); ++x) {
            std::uint64_t compat = ~0ULL;
            for (unsigned pin = 0; pin < pins; ++pin) {
              const TritWord v = port_words(n.fanin[pin])[w];
              compat &= get_bit(x, pin) ? (v.ones | v.unk) : ~v.ones;
            }
            if (compat == 0) continue;
            const std::uint64_t row = t.eval_row(x);
            for (std::uint32_t p = 0; p < num_ports; ++p) {
              (get_bit(row, p) ? could1_[p] : could0_[p]) |= compat;
            }
          }
          for (std::uint32_t p = 0; p < num_ports; ++p) {
            port_words(PortRef(id, p))[w] =
                TritWord{could1_[p] & ~could0_[p], could1_[p] & could0_[p]};
          }
        }
        break;
      }
    }
  }

  for (std::uint32_t i = 0; i < num_latches(); ++i) {
    const Node& latch = netlist_.node(netlist_.latches()[i]);
    const TritWord* src = port_words(latch.fanin[0]);
    TritWord* dst = &state_[static_cast<std::size_t>(i) * nw];
    for (unsigned w = 0; w < nw; ++w) dst[w] = src[w];
  }
}

PackedResponses::PackedResponses(std::vector<std::size_t> lengths,
                                 unsigned outputs)
    : outputs_(outputs), lengths_(std::move(lengths)) {
  offsets_.resize(lengths_.size());
  std::size_t off = 0;
  for (std::size_t lane = 0; lane < lengths_.size(); ++lane) {
    offsets_[lane] = off;
    off += lengths_[lane] * outputs_;
  }
  data_.assign(off, Trit::kX);
}

TritsSeq PackedResponses::sequence(unsigned lane) const {
  TritsSeq seq(length(lane), Trits(outputs_));
  const Trit* src = lane_data(lane);
  for (std::size_t t = 0; t < seq.size(); ++t) {
    for (unsigned o = 0; o < outputs_; ++o) seq[t][o] = *src++;
  }
  return seq;
}

PackedResponseWords::PackedResponseWords(std::vector<std::size_t> lengths,
                                         unsigned outputs)
    : outputs_(outputs),
      words_(static_cast<unsigned>(words_for_bits(lengths.size()))),
      lengths_(std::move(lengths)) {
  for (const std::size_t len : lengths_) max_length_ = std::max(max_length_, len);
  data_.assign(max_length_ * outputs_ * words_, TritWord{});
}

Trit PackedResponseWords::lane_trit(std::size_t cycle, unsigned output,
                                    unsigned lane) const {
  RTV_REQUIRE(lane < num_lanes() && output < outputs_ && cycle < length(lane),
              "index out of range");
  return get_trit(at(cycle, output, lane / 64), lane % 64);
}

void pack_cycle_inputs(const std::vector<TritsSeq>& tests, std::size_t begin,
                       std::size_t count, std::size_t t, Trit idle,
                       PackedTrits* out) {
  RTV_REQUIRE(begin + count <= tests.size(), "chunk exceeds test set");
  RTV_REQUIRE(count <= out->lanes(), "chunk exceeds packed batch width");
  const unsigned width = out->num_signals();
  const unsigned words = out->words();
  const TritWord idle_word = trit_word_fill(idle);
  for (unsigned i = 0; i < width; ++i) {
    TritWord* dst = out->signal_words(i);
    for (unsigned w = 0; w < words; ++w) {
      const std::size_t base = 64ULL * w;
      std::uint64_t ones = idle_word.ones, unk = idle_word.unk;
      const unsigned limit =
          base < count ? static_cast<unsigned>(std::min<std::size_t>(
                             64, count - base))
                       : 0;
      for (unsigned b = 0; b < limit; ++b) {
        const TritsSeq& test = tests[begin + base + b];
        const Trit v = t < test.size() ? test[t][i] : idle;
        const std::uint64_t bit = 1ULL << b;
        ones = v == Trit::kOne ? (ones | bit) : (ones & ~bit);
        unk = v == Trit::kX ? (unk | bit) : (unk & ~bit);
      }
      dst[w] = TritWord{ones, unk};
    }
  }
}

namespace {

std::vector<TritsSeq> lift_all(const std::vector<BitsSeq>& tests) {
  std::vector<TritsSeq> lifted;
  lifted.reserve(tests.size());
  for (const BitsSeq& test : tests) lifted.push_back(to_trits(test));
  return lifted;
}

}  // namespace

PackedResponseWords packed_cls_response_words(
    const Netlist& netlist, const std::vector<TritsSeq>& tests) {
  if (tests.empty()) return PackedResponseWords({}, 0);
  const unsigned lanes = static_cast<unsigned>(tests.size());
  PackedTernarySimulator sim(netlist, lanes);
  const unsigned outputs = sim.num_outputs();
  const unsigned words = sim.words();
  std::vector<std::size_t> lengths(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    for (const Trits& in : tests[lane]) {
      RTV_REQUIRE(in.size() == sim.num_inputs(), "input vector size mismatch");
    }
    lengths[lane] = tests[lane].size();
  }
  PackedResponseWords responses(std::move(lengths), outputs);
  PackedTrits cycle_inputs(sim.num_inputs(), lanes);
  for (std::size_t t = 0; t < responses.max_length(); ++t) {
    pack_cycle_inputs(tests, 0, lanes, t, Trit::kX, &cycle_inputs);
    sim.step_packed(cycle_inputs);
    for (unsigned o = 0; o < outputs; ++o) {
      const TritWord* ow = sim.output_words(o);
      for (unsigned w = 0; w < words; ++w) responses.at(t, o, w) = ow[w];
    }
  }
  return responses;
}

PackedResponseWords packed_cls_response_words(
    const Netlist& netlist, const std::vector<BitsSeq>& tests) {
  return packed_cls_response_words(netlist, lift_all(tests));
}

PackedResponses packed_cls_responses(const Netlist& netlist,
                                     const std::vector<TritsSeq>& tests) {
  // Lane-major transposition of the word-major run: on small netlists the
  // transposition, not the evaluation, bounds throughput, so it reads the
  // planes directly and writes PackedResponses' flat storage in order.
  const PackedResponseWords words = packed_cls_response_words(netlist, tests);
  PackedResponses responses(words.lengths(), words.num_outputs());
  for (unsigned lane = 0; lane < responses.num_lanes(); ++lane) {
    const unsigned word = lane / 64, bit = lane % 64;
    for (std::size_t t = 0; t < responses.length(lane); ++t) {
      for (unsigned o = 0; o < responses.num_outputs(); ++o) {
        responses.at(lane, t, o) = get_trit(words.at(t, o, word), bit);
      }
    }
  }
  return responses;
}

PackedResponses packed_cls_responses(const Netlist& netlist,
                                     const std::vector<BitsSeq>& tests) {
  return packed_cls_responses(netlist, lift_all(tests));
}

}  // namespace rtv
