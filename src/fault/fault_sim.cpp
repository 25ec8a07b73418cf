#include "fault/fault_sim.hpp"

#include "fault/engine.hpp"
#include "sim/packed_sim.hpp"

namespace rtv {

const char* to_string(FaultSimMode mode) {
  switch (mode) {
    case FaultSimMode::kExact:
      return "exact";
    case FaultSimMode::kSampled:
      return "sampled";
    case FaultSimMode::kCls:
      return "cls";
  }
  return "?";
}

std::optional<FaultSimMode> fault_sim_mode_from_string(std::string_view name) {
  if (name == "exact") return FaultSimMode::kExact;
  if (name == "sampled") return FaultSimMode::kSampled;
  if (name == "cls") return FaultSimMode::kCls;
  return std::nullopt;
}

FaultSimResult fault_simulate(const Netlist& netlist,
                              const std::vector<Fault>& faults,
                              const std::vector<BitsSeq>& tests,
                              const FaultSimOptions& options) {
  FaultSimEngine engine(netlist, tests, options);
  return engine.run(faults);
}

namespace {

/// Flat-storage form of responses_distinguish: a definite 0/1 disagreement
/// at any (cycle, output) of the lane.
bool lane_distinguishes(const PackedResponses& good, const PackedResponses& bad,
                        unsigned lane) {
  const Trit* g = good.lane_data(lane);
  const Trit* b = bad.lane_data(lane);
  const std::size_t n = good.lane_size(lane);
  for (std::size_t k = 0; k < n; ++k) {
    if (is_definite(g[k]) && is_definite(b[k]) && g[k] != b[k]) return true;
  }
  return false;
}

}  // namespace

FaultSimResult cls_fault_simulate(const Netlist& netlist,
                                  const std::vector<Fault>& faults,
                                  const std::vector<BitsSeq>& tests) {
  // Reference implementation: one full packed pass over the whole test set
  // per fault. The engine (fault/engine.hpp) is cross-checked against this.
  FaultSimResult result;
  result.detected.assign(faults.size(), false);
  result.detecting_test.assign(faults.size(), -1);
  const PackedResponses good = packed_cls_responses(netlist, tests);
  for (std::size_t i = 0; i < faults.size(); ++i) {
    const PackedResponses bad =
        packed_cls_responses(inject_fault(netlist, faults[i]), tests);
    for (unsigned t = 0; t < good.num_lanes(); ++t) {
      if (lane_distinguishes(good, bad, t)) {
        result.detected[i] = true;
        result.detecting_test[i] = static_cast<int>(t);
        ++result.num_detected;
        break;
      }
    }
  }
  result.tests_run = faults.size() * tests.size();
  result.coverage = faults.empty()
                        ? 0.0
                        : static_cast<double>(result.num_detected) /
                              static_cast<double>(faults.size());
  return result;
}

}  // namespace rtv
