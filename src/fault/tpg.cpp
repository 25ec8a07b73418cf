#include "fault/tpg.hpp"

#include <optional>
#include <sstream>

namespace rtv {

std::string TestSet::summary() const {
  std::ostringstream os;
  os << tests.size() << " tests, " << num_detected << "/" << faults.size()
     << " faults detected (" << static_cast<int>(coverage * 100.0 + 0.5)
     << "%)";
  return os.str();
}

namespace {

BitsSeq random_candidate(unsigned num_inputs, const TpgOptions& options,
                         Rng& rng) {
  const unsigned length = static_cast<unsigned>(
      rng.range(options.min_length, options.max_length));
  BitsSeq seq;
  if (rng.chance(options.constant_probability)) {
    Bits in(num_inputs);
    for (auto& v : in) v = rng.coin();
    seq.assign(length, in);
  } else {
    for (unsigned t = 0; t < length; ++t) {
      Bits in(num_inputs);
      for (auto& v : in) v = rng.coin();
      seq.push_back(in);
    }
  }
  return seq;
}

void finalize(TestSet& set) {
  set.num_detected = 0;
  for (const bool d : set.detected) set.num_detected += d;
  set.coverage = set.faults.empty()
                     ? 0.0
                     : static_cast<double>(set.num_detected) /
                           static_cast<double>(set.faults.size());
}

}  // namespace

TestSet generate_tests(const Netlist& netlist, const TpgOptions& options) {
  Rng rng(options.seed);
  const unsigned inputs =
      static_cast<unsigned>(netlist.primary_inputs().size());
  std::vector<BitsSeq> candidates;
  for (unsigned c = 0; c < options.max_candidates; ++c) {
    candidates.push_back(random_candidate(inputs, options, rng));
  }
  // Fault dropping keeps a candidate iff it is the first to detect some
  // fault, and that first detector is what grading the candidates in order
  // finds: one good response per candidate and one faulty design per fault,
  // not a design pair per (candidate, fault).
  TestSet set =
      grade_tests(netlist, collapse_faults(netlist), candidates, 0);
  std::vector<int> kept(candidates.size(), -1);
  for (const int c : set.detected_by) {
    if (c >= 0) kept[static_cast<std::size_t>(c)] = 0;
  }
  set.tests.clear();
  for (std::size_t c = 0; c < candidates.size(); ++c) {
    if (kept[c] < 0) continue;
    kept[c] = static_cast<int>(set.tests.size());
    set.tests.push_back(std::move(candidates[c]));
  }
  for (int& c : set.detected_by) {
    if (c >= 0) c = kept[static_cast<std::size_t>(c)];
  }
  return set;
}

TestSet grade_tests(const Netlist& netlist, const std::vector<Fault>& faults,
                    const std::vector<BitsSeq>& tests,
                    unsigned delay_cycles) {
  TestSet set;
  set.faults = faults;
  set.detected.assign(faults.size(), false);
  set.detected_by.assign(faults.size(), -1);
  set.tests = tests;
  // Grading reads each test's good response once per call, and each
  // faulty design (with a delay, its state set too) once per fault, not a
  // design pair per (fault, test).
  std::optional<std::vector<std::uint64_t>> good_states;
  std::vector<std::optional<TritsSeq>> good(tests.size());
  // Test t's exact response from every power-up state, or with a delay
  // from the states it leaves (`states`, filled on first use).
  const auto response = [&](const Netlist& n,
                            std::optional<std::vector<std::uint64_t>>& states,
                            std::size_t t) {
    if (delay_cycles == 0) return exact_response(n, tests[t]);
    if (!states) states = delayed_state_set(n, delay_cycles);
    return exact_response_from(n, *states, tests[t]);
  };
  for (std::size_t i = 0; i < faults.size(); ++i) {
    // Skip faults whose site died in the graded design (e.g. swept logic).
    if (faults[i].site.node.value >= netlist.num_slots() ||
        netlist.is_dead(faults[i].site.node) ||
        netlist.sinks(faults[i].site).empty()) {
      continue;
    }
    std::optional<Netlist> faulty;
    std::optional<std::vector<std::uint64_t>> faulty_states;
    const auto detects = [&](std::size_t t) {
      if (!good[t]) good[t] = response(netlist, good_states, t);
      if (!faulty) faulty = inject_fault(netlist, faults[i]);
      return responses_distinguish(*good[t],
                                   response(*faulty, faulty_states, t));
    };
    for (std::size_t t = 0; t < tests.size(); ++t) {
      if (detects(t)) {
        set.detected[i] = true;
        set.detected_by[i] = static_cast<int>(t);
        break;
      }
    }
  }
  finalize(set);
  return set;
}

}  // namespace rtv
