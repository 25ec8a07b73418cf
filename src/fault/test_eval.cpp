#include "fault/test_eval.hpp"

#include "sim/cls_sim.hpp"
#include "sim/exact_sim.hpp"
#include "stg/stg.hpp"

namespace rtv {

TritsSeq exact_response(const Netlist& netlist, const BitsSeq& test) {
  ExactTernarySimulator sim(netlist);
  return sim.run(test);
}

std::vector<std::uint64_t> delayed_state_set(const Netlist& netlist,
                                             unsigned cycles) {
  const std::vector<bool> reachable =
      states_after_delay(Stg::extract(netlist), cycles);
  std::vector<std::uint64_t> states;
  for (std::uint64_t s = 0; s < reachable.size(); ++s) {
    if (reachable[s]) states.push_back(s);
  }
  return states;
}

TritsSeq exact_response_from(const Netlist& netlist,
                             const std::vector<std::uint64_t>& states,
                             const BitsSeq& test) {
  ExactTernarySimulator sim(netlist);
  sim.reset_from_states(states);
  return sim.run(test);
}

TritsSeq exact_response_delayed(const Netlist& netlist, const BitsSeq& test,
                                unsigned delay_cycles) {
  return exact_response_from(
      netlist, delayed_state_set(netlist, delay_cycles), test);
}

TritsSeq cls_response(const Netlist& netlist, const BitsSeq& test) {
  ClsSimulator sim(netlist);
  return sim.run(test);
}

bool responses_distinguish(const TritsSeq& good, const TritsSeq& faulty) {
  RTV_REQUIRE(good.size() == faulty.size(), "response length mismatch");
  for (std::size_t t = 0; t < good.size(); ++t) {
    RTV_REQUIRE(good[t].size() == faulty[t].size(), "response width mismatch");
    for (std::size_t o = 0; o < good[t].size(); ++o) {
      if (is_definite(good[t][o]) && is_definite(faulty[t][o]) &&
          good[t][o] != faulty[t][o]) {
        return true;
      }
    }
  }
  return false;
}

bool test_detects(const Netlist& netlist, const Fault& fault,
                  const BitsSeq& test) {
  return responses_distinguish(exact_response(netlist, test),
                               exact_response(inject_fault(netlist, fault), test));
}

bool test_detects_delayed(const Netlist& netlist, const Fault& fault,
                          const BitsSeq& test, unsigned delay_cycles) {
  return responses_distinguish(
      exact_response_delayed(netlist, test, delay_cycles),
      exact_response_delayed(inject_fault(netlist, fault), test,
                             delay_cycles));
}

bool cls_test_detects(const Netlist& netlist, const Fault& fault,
                      const BitsSeq& test) {
  return responses_distinguish(
      cls_response(netlist, test),
      cls_response(inject_fault(netlist, fault), test));
}

}  // namespace rtv
