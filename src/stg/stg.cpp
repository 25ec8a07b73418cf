#include "stg/stg.hpp"

#include <algorithm>
#include <bit>
#include <memory>
#include <span>
#include <sstream>

#include "sim/packed_sim.hpp"
#include "stg/refine.hpp"
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

namespace {

/// Lane l of sweep word w carries entry 64w + l; bit b < 6 of that entry
/// index is bit b of l, the same pattern in every word.
constexpr std::uint64_t kLaneBit[6] = {
    0xAAAAAAAAAAAAAAAAULL, 0xCCCCCCCCCCCCCCCCULL, 0xF0F0F0F0F0F0F0F0ULL,
    0xFF00FF00FF00FF00ULL, 0xFFFF0000FFFF0000ULL, 0xFFFFFFFF00000000ULL};

/// Transposes `count` <= 16 bit-planes (plane i holds bit i of 64 lanes)
/// into one 16-bit value per lane. The planes form a 16x64 bit matrix, four
/// 16x16 blocks side by side (block q holds lanes 16q..16q+15); the delta
/// swap for s exchanges row bit s with column bit s in all four at once.
void transpose16(const std::uint64_t* planes, unsigned count,
                 std::uint16_t out[64]) {
  constexpr std::uint64_t kKeep[4] = {
      0x00FF00FF00FF00FFULL, 0x0F0F0F0F0F0F0F0FULL, 0x3333333333333333ULL,
      0x5555555555555555ULL};  // columns without bit s, s = 8, 4, 2, 1
  std::uint64_t r[16] = {};
  std::copy_n(planes, count, r);
  for (unsigned k = 0, s = 8; s != 0; ++k, s /= 2) {
    for (unsigned i = 0; i < 16; ++i) {
      if ((i & s) != 0) continue;
      const std::uint64_t t = ((r[i] >> s) ^ r[i + s]) & kKeep[k];
      r[i + s] ^= t;
      r[i] ^= t << s;
    }
  }
  for (unsigned q = 0; q < 4; ++q) {
    for (unsigned j = 0; j < 16; ++j) {
      out[16 * q + j] = static_cast<std::uint16_t>(r[j] >> (16 * q));
    }
  }
}

/// transpose16 for up to 64 planes: one 64-bit value per lane.
void transpose(const std::uint64_t* planes, unsigned count,
               std::uint64_t out[64]) {
  std::fill(out, out + 64, 0);
  std::uint16_t part[64];
  for (unsigned g = 0; g < count; g += 16) {
    transpose16(planes + g, std::min(16u, count - g), part);
    for (unsigned l = 0; l < 64; ++l) out[l] |= std::uint64_t{part[l]} << g;
  }
}

struct SweepShape {
  unsigned latches, pis, outputs;
  std::uint64_t states, inputs;
  unsigned lanes;  ///< entries per word: 64, fewer only for a tiny machine
};

SweepShape sweep_shape(const Netlist& netlist, std::uint64_t entry_cap) {
  const auto latches = static_cast<unsigned>(netlist.latches().size());
  const auto pis = static_cast<unsigned>(netlist.primary_inputs().size());
  const auto outputs = static_cast<unsigned>(netlist.primary_outputs().size());
  RTV_REQUIRE(latches <= 32, "STG extraction supports at most 32 latches");
  RTV_REQUIRE(pis <= 20, "STG extraction supports at most 20 inputs");
  RTV_REQUIRE(outputs <= 64, "STG extraction supports at most 64 outputs");
  const std::uint64_t entries = pow2(latches + pis);
  if (entries > entry_cap) {
    throw CapacityError("STG extraction: 2^(latches+inputs) exceeds cap (" +
                        std::to_string(entries) + " entries, cap " +
                        std::to_string(entry_cap) + ")");
  }
  return {latches, pis, outputs, pow2(latches), pow2(pis),
          static_cast<unsigned>(std::min<std::uint64_t>(entries, 64))};
}

/// Simulates every entry e = r * inputs + input, 64 per word, where r is a
/// state or, with `reps` given, the state reps[r] (at most 16 latches), and
/// calls on_word(w, next_planes, out_planes) in word order with word w's
/// latched next-state plane per latch and plane per output. Primary inputs
/// from shape.pis on are tied to 0. Lanes past the last entry are
/// don't-cares.
template <typename OnWord>
void packed_sweep(const Netlist& netlist, const SweepShape& shape,
                  std::span<const std::uint32_t> reps, ResourceBudget* budget,
                  OnWord on_word) {
  if (budget != nullptr) budget->checkpoint_or_throw("stg/extract");
  const std::uint64_t rows = reps.empty() ? shape.states : reps.size();
  const std::uint64_t words = words_for_bits(rows * shape.inputs);
  // Words per step: enough to amortize the per-cell dispatch, few enough
  // to keep the value planes in cache.
  const auto chunk = static_cast<unsigned>(std::min<std::uint64_t>(words, 64));
  PackedTernarySimulator sim(netlist, chunk * 64);
  PackedTrits in(static_cast<unsigned>(netlist.primary_inputs().size()),
                 chunk * 64);
  const unsigned width = shape.latches + shape.outputs;
  std::vector<std::uint64_t> planes(std::size_t{width} * chunk);  // [j][plane]
  // Entry bit b is input bit b below shape.pis, state bit b - pis above
  // unless the states come from `reps`: representative r then fills the
  // 2^pis lanes of its entries, a whole word or a slice of one.
  const unsigned bits = shape.pis + (reps.empty() ? shape.latches : 0);
  const unsigned span = std::min(shape.pis, 6u);
  const std::uint64_t slice = low_mask(1u << span);
  std::uint64_t unknown = 0;
  for (std::uint64_t first = 0; first < words; first += chunk) {
    if (budget != nullptr) budget->checkpoint_or_throw("stg/extract-chunk");
    const auto count =
        static_cast<unsigned>(std::min<std::uint64_t>(chunk, words - first));
    for (unsigned b = 0; b < bits; ++b) {
      TritWord* dst = b < shape.pis ? in.signal_words(b)
                                    : sim.state_words(b - shape.pis);
      for (unsigned j = 0; j < count; ++j) {
        dst[j] = TritWord{b < 6 ? kLaneBit[b]
                          : get_bit(first + j, b - 6) ? ~0ULL : 0, 0};
      }
    }
    for (unsigned j = 0; j < count && !reps.empty(); ++j) {
      std::uint64_t state[16] = {};
      const std::uint64_t r0 = (first + j) * 64 >> shape.pis;
      for (unsigned k = 0; k < 64u >> span; ++k) {
        const std::uint32_t s = reps[std::min(r0 + k, rows - 1)];
        for (unsigned i = 0; i < shape.latches; ++i) {
          if (get_bit(s, i)) state[i] |= slice << (k << span);
        }
      }
      for (unsigned i = 0; i < shape.latches; ++i) {
        sim.state_words(i)[j] = TritWord{state[i], 0};
      }
    }
    sim.step_packed(in);
    for (unsigned p = 0; p < width; ++p) {
      const TritWord* src = p < shape.latches
                                ? sim.state_words(p)
                                : sim.output_words(p - shape.latches);
      for (unsigned j = 0; j < count; ++j) {
        planes[std::size_t{j} * width + p] = src[j].ones;
        unknown |= src[j].unk;
      }
    }
    for (unsigned j = 0; j < count; ++j) {
      const std::uint64_t* word = planes.data() + std::size_t{j} * width;
      on_word(first + j, word, word + shape.latches);
    }
  }
  RTV_CHECK_MSG(unknown == 0, "a definite state and input produced an X");
}

}  // namespace

RowKeys row_keys(const Netlist& netlist, ResourceBudget* budget) {
  const SweepShape shape = sweep_shape(netlist, ~std::uint64_t{0});
  RTV_REQUIRE(shape.latches <= 16, "row keys support at most 16 latches");
  // Without a PI every function is in F, and no key has fewer than L bits.
  if (shape.pis == 0 || shape.latches == 0) return {};
  // Per node: bit i for latch i, kPi for any primary input. A node's
  // support covers every output port's (JUNC, table cells), which can only
  // grow M and shrink F, so equal keys still mean equal rows.
  constexpr std::uint64_t kPi = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> support(netlist.num_slots(), 0);
  for (const NodeId pi : netlist.primary_inputs()) support[pi.value] = kPi;
  for (unsigned i = 0; i < shape.latches; ++i) {
    support[netlist.latches()[i].value] = std::uint64_t{1} << i;
  }
  for (const NodeId id : combinational_topo_order(netlist)) {
    const CellKind kind = netlist.kind(id);
    if (kind == CellKind::kInput || kind == CellKind::kLatch) continue;
    std::uint64_t s = 0;
    for (const PortRef& d : netlist.node(id).fanin) s |= support[d.node.value];
    support[id.value] = s;
  }
  // Function f is latch f's next state below shape.latches, else an output.
  std::uint64_t m = 0;
  unsigned f_index[16], f_count = 0;  // F; 16 or more never halve
  for (unsigned f = 0; f < shape.latches + shape.outputs; ++f) {
    const NodeId n = f < shape.latches
                         ? netlist.latches()[f]
                         : netlist.primary_outputs()[f - shape.latches];
    const std::uint64_t s = support[netlist.node(n).fanin[0].node.value];
    if ((s & kPi) != 0) {
      m |= s & ~kPi;
    } else if (f_count++ < 16) {
      f_index[f_count - 1] = f;
    }
  }
  const unsigned key_bits = static_cast<unsigned>(std::popcount(m)) + f_count;
  if (key_bits >= shape.latches) return {};

  RowKeys keys;
  keys.rep_of.resize(shape.states);
  constexpr std::uint16_t kNone = 0xffff;  // never an index: keys < 2^15
  std::vector<std::uint16_t> rep_of_key(pow2(key_bits), kNone);
  SweepShape pass = shape;  // every state once, PIs tied to 0
  pass.pis = 0;
  pass.inputs = 1;
  pass.lanes = static_cast<unsigned>(std::min<std::uint64_t>(shape.states, 64));
  packed_sweep(
      netlist, pass, {}, budget,
      [&](std::uint64_t w, const std::uint64_t* next_planes,
          const std::uint64_t* out_planes) {
        std::uint64_t key_planes[16];  // M's state planes, then F's values
        unsigned k = 0;
        for (std::uint64_t rest = m; rest != 0; rest &= rest - 1) {
          const auto i = static_cast<unsigned>(std::countr_zero(rest));
          key_planes[k++] = i < 6 ? kLaneBit[i] : get_bit(w, i - 6) ? ~0ULL : 0;
        }
        for (unsigned f = 0; f < f_count; ++f) {
          const unsigned g = f_index[f];
          key_planes[k++] = g < shape.latches ? next_planes[g]
                                            : out_planes[g - shape.latches];
        }
        std::uint16_t key[64];
        transpose16(key_planes, k, key);
        for (unsigned l = 0; l < pass.lanes; ++l) {
          std::uint16_t& rep = rep_of_key[key[l]];
          if (rep == kNone) {
            rep = static_cast<std::uint16_t>(keys.reps.size());
            keys.reps.push_back(static_cast<std::uint32_t>(64 * w + l));
          }
          keys.rep_of[64 * w + l] = rep;
        }
      });
  return keys;
}

Stg Stg::extract(const Netlist& netlist, std::uint64_t entry_cap,
                 ResourceBudget* budget) {
  const SweepShape shape = sweep_shape(netlist, entry_cap);
  // Reserved, not zero-filled: a cut-off extraction touches what it filled.
  std::vector<std::uint32_t> next;
  std::vector<std::uint64_t> out;
  next.reserve(shape.states * shape.inputs);
  out.reserve(shape.states * shape.inputs);
  packed_sweep(netlist, shape, {}, budget,
               [&](std::uint64_t, const std::uint64_t* next_planes,
                   const std::uint64_t* out_planes) {
                 std::uint64_t ns[64], o[64];
                 transpose(next_planes, shape.latches, ns);
                 transpose(out_planes, shape.outputs, o);
                 for (unsigned l = 0; l < shape.lanes; ++l) {
                   next.push_back(static_cast<std::uint32_t>(ns[l]));
                   out.push_back(o[l]);
                 }
               });
  return Stg(shape.states, shape.inputs, shape.outputs, std::move(next),
             std::move(out));
}

Stg Stg::extract_minimized(const Netlist& netlist, std::uint64_t entry_cap,
                           ResourceBudget* budget) {
  const SweepShape shape = sweep_shape(netlist, entry_cap);
  if (shape.latches > 16) {
    throw CapacityError("minimized STG extraction: " +
                        std::to_string(shape.latches) + " latches exceed 16");
  }
  // The sweep's rows: one per representative, or one per state.
  const RowKeys keys = row_keys(netlist, budget);
  const std::uint64_t rows = keys.reps.empty() ? shape.states : keys.reps.size();
  const std::uint64_t ni = shape.inputs;
  // A row's outputs, interned as they leave the sweep: per 64-input word
  // of the row, one plane per output, cut to the row's own ni bits where
  // several rows share a word.
  const std::uint64_t row_words = std::max<std::uint64_t>(ni / 64, 1);
  const std::uint64_t per_word = std::max<std::uint64_t>(64 / ni, 1);
  const std::uint64_t row_mask = low_mask(static_cast<unsigned>(64 / per_word));
  const std::size_t row_size = row_words * shape.outputs;
  // Every sweep word transposes 64 lanes in place, the last one included.
  const auto next = std::make_unique_for_overwrite<std::uint16_t[]>(
      64 * words_for_bits(rows * ni));
  std::vector<std::uint32_t> initial(rows);
  // The distinct output rows, row r at r * row_size, then the one filling.
  std::vector<std::uint64_t> outs(row_size);
  std::uint32_t num_outs = 0;
  IdSet ids;
  packed_sweep(
      netlist, shape, keys.reps, budget,
      [&](std::uint64_t w, const std::uint64_t* next_planes,
          const std::uint64_t* out_planes) {
        std::uint16_t* targets = next.get() + 64 * w;
        transpose16(next_planes, shape.latches, targets);
        if (!keys.reps.empty()) {  // successor states to their rows
          for (unsigned l = 0; l < 64; ++l) targets[l] = keys.rep_of[targets[l]];
        }
        const std::uint64_t j = w % row_words;
        for (std::uint64_t k = 0, r = w / row_words * per_word;
             k < per_word && r < rows; ++k, ++r) {
          std::uint64_t* key = outs.data() + num_outs * row_size;
          for (unsigned o = 0; o < shape.outputs; ++o) {
            key[j * shape.outputs + o] = (out_planes[o] >> (k * ni)) & row_mask;
          }
          if (j + 1 < row_words) continue;
          initial[r] = ids.intern_words(key, row_size, outs.data(), num_outs);
          if (initial[r] == num_outs) {
            ++num_outs;
            outs.resize(outs.size() + row_size);
          }
        }
      });
  // Representatives are numbered by their first state, so the classes'
  // first-occurrence numbering, and every table, is that of all states.
  return quotient_machine(
      refine_partition(initial, next.get(), ni, budget), next.get(), ni,
      shape.outputs, [&](std::uint64_t r, std::uint64_t* out) {
        const std::uint64_t* row = outs.data() + initial[r] * row_size;
        for (std::uint64_t j = 0; j < row_words; ++j) {
          std::uint64_t o[64];
          transpose(row + j * shape.outputs, shape.outputs, o);
          std::copy_n(o, std::min<std::uint64_t>(ni, 64), out + j * 64);
        }
      });
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
