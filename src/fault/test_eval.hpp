#pragma once
// Sequential test evaluation under unknown power-up state.
//
// A test sequence *detects* a fault iff at some cycle some output is a
// definite value in the fault-free design from EVERY power-up state and the
// complementary definite value in the faulty design from every power-up
// state — i.e. the exact three-valued responses differ 0-vs-1 at some
// position (the criterion behind the paper's Section 2.2 example).
//
// The CLS variant replaces the exact responses with conservative
// three-valued simulation from the all-X state; CLS detection implies exact
// detection but not conversely.

#include "fault/fault.hpp"
#include "netlist/netlist.hpp"
#include "sim/vectors.hpp"

namespace rtv {

/// Exact three-valued response of a design to a binary test sequence,
/// starting from all power-up states.
TritsSeq exact_response(const Netlist& netlist, const BitsSeq& test);

/// The states possible after `cycles` arbitrary-input cycles from any
/// power-up state (the C^n of Section 3.4), packed, read off the extracted
/// STG. Throws CapacityError when 2^(latches + inputs) exceeds the STG
/// entry cap (kDefaultStgEntryCap).
std::vector<std::uint64_t> delayed_state_set(const Netlist& netlist,
                                             unsigned cycles);

/// Exact response starting from an explicit set of packed states.
TritsSeq exact_response_from(const Netlist& netlist,
                             const std::vector<std::uint64_t>& states,
                             const BitsSeq& test);

/// exact_response_from the delayed_state_set.
TritsSeq exact_response_delayed(const Netlist& netlist, const BitsSeq& test,
                                unsigned delay_cycles);

/// CLS response from the all-X state.
TritsSeq cls_response(const Netlist& netlist, const BitsSeq& test);

/// True iff the two responses definitely differ at some (cycle, output).
bool responses_distinguish(const TritsSeq& good, const TritsSeq& faulty);

/// Exact detection of a fault by a test.
bool test_detects(const Netlist& netlist, const Fault& fault,
                  const BitsSeq& test);

/// Exact detection when the design has been clocked `delay_cycles` cycles
/// with arbitrary inputs before the test is applied (Theorem 4.6's C^k).
bool test_detects_delayed(const Netlist& netlist, const Fault& fault,
                          const BitsSeq& test, unsigned delay_cycles);

/// CLS-based detection (conservative).
bool cls_test_detects(const Netlist& netlist, const Fault& fault,
                      const BitsSeq& test);

}  // namespace rtv
