#include "stg/stg.hpp"

#include <sstream>

#include "sim/binary_sim.hpp"
#include "util/bits.hpp"

namespace rtv {

Stg::Stg(std::uint64_t num_states, std::uint64_t num_inputs,
         unsigned num_output_bits, std::vector<std::uint32_t> next,
         std::vector<std::uint64_t> out)
    : num_states_(num_states),
      num_inputs_(num_inputs),
      num_output_bits_(num_output_bits),
      next_(std::move(next)),
      out_(std::move(out)) {
  RTV_REQUIRE(num_states_ >= 1, "STG needs at least one state");
  RTV_REQUIRE(num_inputs_ >= 1, "STG needs at least one input symbol");
  RTV_REQUIRE(num_output_bits_ <= 64, "at most 64 output bits");
  RTV_REQUIRE(next_.size() == num_states_ * num_inputs_,
              "next table size mismatch");
  RTV_REQUIRE(out_.size() == next_.size(), "output table size mismatch");
  for (const std::uint32_t t : next_) {
    RTV_REQUIRE(t < num_states_, "transition target out of range");
  }
}

std::size_t Stg::index(std::uint64_t state, std::uint64_t input) const {
  RTV_REQUIRE(state < num_states_ && input < num_inputs_,
              "STG lookup out of range");
  return static_cast<std::size_t>(state * num_inputs_ + input);
}

Stg Stg::extract(const Netlist& netlist, std::uint64_t entry_cap,
                 ResourceBudget* budget) {
  const unsigned latches = static_cast<unsigned>(netlist.latches().size());
  const unsigned pis = static_cast<unsigned>(netlist.primary_inputs().size());
  RTV_REQUIRE(latches <= 32, "STG extraction supports at most 32 latches");
  RTV_REQUIRE(pis <= 20, "STG extraction supports at most 20 inputs");
  const std::uint64_t num_states = pow2(latches);
  const std::uint64_t num_inputs = pow2(pis);
  if (num_states * num_inputs > entry_cap) {
    throw CapacityError("STG extraction: 2^(latches+inputs) exceeds cap (" +
                        std::to_string(num_states * num_inputs) +
                        " entries, cap " + std::to_string(entry_cap) + ")");
  }
  BinarySimulator sim(netlist);
  // Reserved, not zero-filled: a cut-off extraction touches what it filled.
  std::vector<std::uint32_t> next;
  std::vector<std::uint64_t> out;
  next.reserve(num_states * num_inputs);
  out.reserve(num_states * num_inputs);
  for (std::uint64_t s = 0; s < num_states; ++s) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/extract-state");
    for (std::uint64_t a = 0; a < num_inputs; ++a) {
      std::uint64_t o = 0, ns = 0;
      sim.eval_packed(s, a, o, ns);
      next.push_back(static_cast<std::uint32_t>(ns));
      out.push_back(o);
    }
  }
  return Stg(num_states, num_inputs,
             static_cast<unsigned>(netlist.primary_outputs().size()),
             std::move(next), std::move(out));
}

std::vector<std::uint64_t> Stg::run(
    std::uint32_t& state, const std::vector<std::uint64_t>& inputs) const {
  std::vector<std::uint64_t> outputs;
  outputs.reserve(inputs.size());
  for (const std::uint64_t a : inputs) {
    outputs.push_back(output(state, a));
    state = next_state(state, a);
  }
  return outputs;
}

bool Stg::compatible_with(const Stg& other) const {
  return num_inputs_ == other.num_inputs_ &&
         num_output_bits_ == other.num_output_bits_;
}

Stg Stg::disjoint_union(const Stg& a, const Stg& b) {
  RTV_REQUIRE(a.compatible_with(b), "disjoint_union on incompatible machines");
  const std::uint64_t states = a.num_states_ + b.num_states_;
  std::vector<std::uint32_t> next;
  std::vector<std::uint64_t> out;
  next.reserve(states * a.num_inputs_);
  out.reserve(states * a.num_inputs_);
  next.insert(next.end(), a.next_.begin(), a.next_.end());
  out.insert(out.end(), a.out_.begin(), a.out_.end());
  const std::uint32_t offset = static_cast<std::uint32_t>(a.num_states_);
  for (const std::uint32_t t : b.next_) next.push_back(t + offset);
  out.insert(out.end(), b.out_.begin(), b.out_.end());
  return Stg(states, a.num_inputs_, a.num_output_bits_, std::move(next),
             std::move(out));
}

Stg Stg::restrict(const std::vector<bool>& keep,
                  std::vector<std::uint32_t>* old_to_new) const {
  RTV_REQUIRE(keep.size() == num_states_, "keep mask size mismatch");
  constexpr std::uint32_t kUnmapped = 0xffffffffu;
  std::vector<std::uint32_t> map(num_states_, kUnmapped);
  std::uint32_t count = 0;
  for (std::uint64_t s = 0; s < num_states_; ++s) {
    if (keep[s]) map[s] = count++;
  }
  RTV_REQUIRE(count >= 1, "restriction must keep at least one state");
  std::vector<std::uint32_t> next(static_cast<std::size_t>(count) * num_inputs_);
  std::vector<std::uint64_t> out(next.size());
  for (std::uint64_t s = 0; s < num_states_; ++s) {
    if (!keep[s]) continue;
    for (std::uint64_t a = 0; a < num_inputs_; ++a) {
      const std::uint32_t t = next_[index(s, a)];
      RTV_REQUIRE(keep[t], "restriction set is not closed under transitions");
      next[map[s] * num_inputs_ + a] = map[t];
      out[map[s] * num_inputs_ + a] = out_[index(s, a)];
    }
  }
  if (old_to_new != nullptr) *old_to_new = std::move(map);
  return Stg(count, num_inputs_, num_output_bits_, std::move(next),
             std::move(out));
}

std::string Stg::to_string() const {
  std::ostringstream os;
  os << "stg: " << num_states_ << " states, " << num_inputs_
     << " input symbols, " << num_output_bits_ << " output bits\n";
  for (std::uint64_t s = 0; s < num_states_; ++s) {
    for (std::uint64_t a = 0; a < num_inputs_; ++a) {
      os << "  s" << s << " --" << a << "/" << output(s, a) << "--> s"
         << next_state(s, a) << "\n";
    }
  }
  return os.str();
}

}  // namespace rtv
