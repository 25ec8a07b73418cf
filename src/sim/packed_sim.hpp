#pragma once
// Bit-parallel packed ternary simulator: 64 independent three-valued
// machine instances per TritWord, with CLS semantics per lane.
//
// Each lane evolves exactly as a ClsSimulator would (local, per-cell exact
// ternary propagation — paper Section 5), so one packed step performs 64
// conservative three-valued simulation steps. Definite (0/1) states and
// inputs make the unknown planes vanish and every lane then evolves as a
// Boolean machine, which is why every batch run, the CLS and sampled fault
// simulators and the bounded CLS equivalence checker route through this one
// core; ClsSimulator stays the scalar reference it is checked against.

#include <cstdint>

#include "netlist/netlist.hpp"
#include "sim/packed_vectors.hpp"
#include "sim/port_map.hpp"
#include "sim/vectors.hpp"

namespace rtv {

class PackedTernarySimulator {
 public:
  static constexpr unsigned kLanesPerWord = 64;

  /// `lanes` independent instances of the netlist (rounded up to whole
  /// words internally; lanes beyond `lanes()` hold unspecified values).
  /// Every lane powers up all-X, the CLS convention.
  PackedTernarySimulator(const Netlist& netlist, unsigned lanes);

  unsigned lanes() const { return lanes_; }
  unsigned words() const { return words_; }
  unsigned num_inputs() const { return static_cast<unsigned>(netlist_.primary_inputs().size()); }
  unsigned num_outputs() const { return static_cast<unsigned>(netlist_.primary_outputs().size()); }
  unsigned num_latches() const { return static_cast<unsigned>(netlist_.latches().size()); }

  /// Resets every latch of every lane to X.
  void reset_to_all_x();

  /// Sets latch `latch` of lane `lane`.
  void set_state_trit(unsigned latch, unsigned lane, Trit value);
  Trit state_trit(unsigned latch, unsigned lane) const;

  /// Sets every lane's latch state to the same ternary vector.
  void set_state_broadcast(const Trits& latch_values);

  /// Reads back one lane's full latch state.
  Trits state_lane(unsigned lane) const;

  /// Packed planes of latch `latch` (words() entries): the state the next
  /// step reads and, after it, the state it latched. Writable, so a caller
  /// can load a different state into every lane a whole word at a time.
  TritWord* state_words(unsigned latch);

  /// One clock cycle with the same ternary input vector on every lane.
  void step_broadcast(const Trits& inputs);

  /// One clock cycle with per-lane inputs (one signal per primary input,
  /// one lane per pattern).
  void step_packed(const PackedTrits& inputs);

  /// Output `output` of lane `lane` from the most recent step.
  Trit output_trit(unsigned output, unsigned lane) const;

  /// Packed output planes of output `output` from the most recent step
  /// (words() entries).
  const TritWord* output_words(unsigned output) const;

 private:
  void eval_and_clock();

  const Netlist& netlist_;
  PortMap ports_;
  std::vector<NodeId> topo_;
  std::vector<std::uint32_t> io_pos_;
  unsigned lanes_;
  unsigned words_;
  std::vector<TritWord> state_;    ///< [latch * words_ + word]
  std::vector<TritWord> inputs_;   ///< [input * words_ + word]
  std::vector<TritWord> outputs_;  ///< [output * words_ + word]
  std::vector<TritWord> values_;   ///< [port_index * words_ + word]
  /// Table-cell scratch: per-output could-be-1 / could-be-0 planes.
  std::vector<std::uint64_t> could1_, could0_;
};

/// Per-lane output sequences of a batch run, stored flat: one allocation
/// for the whole batch instead of one vector per (lane, cycle). This is the
/// engine's native result form — on small netlists, materializing nested
/// TritsSeq vectors costs more than the simulation itself.
class PackedResponses {
 public:
  /// `lengths[lane]` cycles per lane, `outputs` trits per cycle.
  PackedResponses(std::vector<std::size_t> lengths, unsigned outputs);

  unsigned num_lanes() const { return static_cast<unsigned>(lengths_.size()); }
  unsigned num_outputs() const { return outputs_; }
  std::size_t length(unsigned lane) const { return lengths_[lane]; }

  Trit at(unsigned lane, std::size_t cycle, unsigned output) const {
    return data_[offsets_[lane] + cycle * outputs_ + output];
  }
  Trit& at(unsigned lane, std::size_t cycle, unsigned output) {
    return data_[offsets_[lane] + cycle * outputs_ + output];
  }

  /// Contiguous trits of one lane, cycle-major ([cycle * outputs + output],
  /// lane_size(lane) = length(lane) * num_outputs() entries).
  const Trit* lane_data(unsigned lane) const { return data_.data() + offsets_[lane]; }
  std::size_t lane_size(unsigned lane) const {
    return length(lane) * outputs_;
  }

  /// Materializes one lane as a per-cycle sequence.
  TritsSeq sequence(unsigned lane) const;

 private:
  unsigned outputs_;
  std::vector<std::size_t> lengths_;  ///< cycles per lane
  std::vector<std::size_t> offsets_;  ///< per-lane start in data_
  std::vector<Trit> data_;
};

/// Word-major packed batch responses: one TritWord of 64 lanes per
/// (cycle, output, word). This is the layout a packed consumer (the fault
/// engine) compares a freshly simulated 64-lane chunk against with three
/// word ops instead of a per-lane transposition — chunk c of a test set
/// lives entirely in word index c. Entries of a lane past its own test
/// length hold idle-run values; consumers must mask them out.
class PackedResponseWords {
 public:
  PackedResponseWords() = default;
  /// `lengths[lane]` cycles per lane, `outputs` trits per cycle; storage
  /// covers max(lengths) cycles for all ceil(lanes/64) words.
  PackedResponseWords(std::vector<std::size_t> lengths, unsigned outputs);

  unsigned num_lanes() const { return static_cast<unsigned>(lengths_.size()); }
  unsigned num_outputs() const { return outputs_; }
  unsigned words() const { return words_; }
  std::size_t max_length() const { return max_length_; }
  std::size_t length(unsigned lane) const { return lengths_[lane]; }
  const std::vector<std::size_t>& lengths() const { return lengths_; }

  const TritWord& at(std::size_t cycle, unsigned output, unsigned word) const {
    return data_[(cycle * outputs_ + output) * words_ + word];
  }
  TritWord& at(std::size_t cycle, unsigned output, unsigned word) {
    return data_[(cycle * outputs_ + output) * words_ + word];
  }

  /// One lane's trit at (cycle, output) — bounds-checked convenience for
  /// tests and scalar consumers. Requires cycle < length(lane).
  Trit lane_trit(std::size_t cycle, unsigned output, unsigned lane) const;

 private:
  unsigned outputs_ = 0;
  unsigned words_ = 0;
  std::size_t max_length_ = 0;
  std::vector<std::size_t> lengths_;
  std::vector<TritWord> data_;
};

/// CLS responses of a whole test set in word-major form (same lane
/// semantics as packed_cls_responses, different storage layout).
PackedResponseWords packed_cls_response_words(const Netlist& netlist,
                                              const std::vector<TritsSeq>& tests);
PackedResponseWords packed_cls_response_words(const Netlist& netlist,
                                              const std::vector<BitsSeq>& tests);

/// Transposes cycle `t` of tests[begin, begin+count) into `out`: lane b
/// reads tests[begin+b][t]; lanes past a test's end, and lanes >= count,
/// read `idle`. This is the chunked-iteration primitive shared by the batch
/// runner and the fault engine (which walks a test set one 64-lane chunk at
/// a time instead of packing the whole set).
void pack_cycle_inputs(const std::vector<TritsSeq>& tests, std::size_t begin,
                       std::size_t count, std::size_t t, Trit idle,
                       PackedTrits* out);

/// Runs every ternary input sequence from the all-X state, 64 sequences per
/// word. Lane i of the result agrees with ClsSimulator::run(tests[i]) —
/// PackedResponses::sequence(i) materializes it; sequences may have
/// different lengths.
PackedResponses packed_cls_responses(const Netlist& netlist,
                                     const std::vector<TritsSeq>& tests);
PackedResponses packed_cls_responses(const Netlist& netlist,
                                     const std::vector<BitsSeq>& tests);

}  // namespace rtv
