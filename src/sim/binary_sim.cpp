#include "sim/binary_sim.hpp"

#include "util/bits.hpp"

namespace rtv {

namespace {

void lift(const Bits& bits, Trits& out) {
  out.resize(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) out[i] = to_trit(bits[i] != 0);
}

void lift(std::uint64_t word, unsigned width, Trits& out) {
  out.resize(width);
  for (unsigned i = 0; i < width; ++i) out[i] = to_trit(get_bit(word, i));
}

/// Definite inputs on a definite state keep every CLS value definite.
void lower(const Trits& trits, Bits& out) {
  RTV_CHECK(try_lower_to_bits(trits, out));
}

std::uint64_t lower_packed(const Trits& trits) {
  std::uint64_t word = 0;
  for (std::size_t i = 0; i < trits.size(); ++i) {
    RTV_CHECK(is_definite(trits[i]));
    if (trits[i] == Trit::kOne) word |= 1ULL << i;
  }
  return word;
}

}  // namespace

BinarySimulator::BinarySimulator(const Netlist& netlist)
    : cls_(netlist), state_(netlist.latches().size(), 0) {}

void BinarySimulator::set_state(const Bits& latch_values) {
  RTV_REQUIRE(latch_values.size() == state_.size(),
              "state vector size mismatch");
  state_ = latch_values;
}

Bits BinarySimulator::step(const Bits& inputs) {
  Bits outputs, next_state;
  eval(state_, inputs, outputs, next_state);
  state_ = std::move(next_state);
  return outputs;
}

BitsSeq BinarySimulator::run(const BitsSeq& inputs) {
  BitsSeq outputs;
  outputs.reserve(inputs.size());
  for (const Bits& in : inputs) outputs.push_back(step(in));
  return outputs;
}

void BinarySimulator::eval(const Bits& state, const Bits& inputs,
                           Bits& outputs, Bits& next_state) const {
  lift(state, state_in_);
  lift(inputs, inputs_in_);
  cls_.eval(state_in_, inputs_in_, outputs_out_, next_out_);
  lower(outputs_out_, outputs);
  lower(next_out_, next_state);
}

void BinarySimulator::eval_packed(std::uint64_t state, std::uint64_t inputs,
                                  std::uint64_t& outputs,
                                  std::uint64_t& next_state) const {
  const unsigned nl = num_latches();
  const unsigned ni = num_inputs();
  RTV_REQUIRE(nl <= 64 && ni <= 64, "eval_packed capacity exceeded");
  lift(state, nl, state_in_);
  lift(inputs, ni, inputs_in_);
  cls_.eval(state_in_, inputs_in_, outputs_out_, next_out_);
  outputs = lower_packed(outputs_out_);
  next_state = lower_packed(next_out_);
}

}  // namespace rtv
