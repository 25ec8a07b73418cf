// Pipeline retiming: the introduction's motivating workload — a pipelined
// multiplier datapath whose latches have no reset. Optimize it for clock
// period and for register count, then confirm the optimized design still
// multiplies.
//
//   $ ./pipeline_retime [bits] [rows_per_stage]

#include <cstdio>
#include <cstdlib>

#include "gen/datapath.hpp"
#include "retime/apply.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "sim/binary_sim.hpp"
#include "util/bits.hpp"
#include "util/rng.hpp"

using namespace rtv;

namespace {

bool check_multiplies(const Netlist& n, unsigned bits, unsigned flush) {
  BinarySimulator sim(n);
  Rng rng(2024);
  for (int trial = 0; trial < 16; ++trial) {
    const std::uint64_t a = rng.below(1ULL << bits);
    const std::uint64_t b = rng.below(1ULL << bits);
    Bits in(2 * bits);
    for (unsigned i = 0; i < bits; ++i) {
      in[i] = get_bit(a, i);
      in[bits + i] = get_bit(b, i);
    }
    Bits out;
    for (unsigned t = 0; t < flush; ++t) out = sim.step(in);
    std::uint64_t product = 0;
    for (unsigned i = 0; i < 2 * bits; ++i) {
      if (out[i]) product |= (1ULL << i);
    }
    if (product != a * b) {
      std::printf("  MISMATCH: %llu * %llu = %llu, got %llu\n",
                  static_cast<unsigned long long>(a),
                  static_cast<unsigned long long>(b),
                  static_cast<unsigned long long>(a * b),
                  static_cast<unsigned long long>(product));
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const unsigned bits = argc > 1 ? static_cast<unsigned>(std::atoi(argv[1])) : 8;
  const unsigned rows = argc > 2 ? static_cast<unsigned>(std::atoi(argv[2])) : 2;

  const Netlist n = pipelined_multiplier(bits, rows);
  const RetimeGraph g = RetimeGraph::from_netlist(n);
  std::printf("workload: %u-bit pipelined multiplier, %u rows/stage\n  %s\n",
              bits, rows, g.summary().c_str());

  // Minimum clock period (matrix-free algorithm; scales to large designs).
  const RetimingSolution period = min_period_retime_feas(g);
  std::printf("\nmin-period retiming: period %d -> %d\n", g.clock_period(),
              period.period);
  const Netlist fast = apply_retiming(n, g, period.lag);
  std::printf("  registers %lld -> %zu\n",
              static_cast<long long>(g.total_weight()), fast.num_latches());
  std::printf("  still multiplies: %s\n",
              check_multiplies(fast, bits, bits + 8) ? "yes" : "NO");

  // Minimum register count.
  const MinAreaResult area = min_area_retime(g);
  std::printf("\nmin-area retiming: registers %lld -> %lld (period %d -> %d)\n",
              static_cast<long long>(area.registers_before),
              static_cast<long long>(area.registers_after), g.clock_period(),
              g.clock_period(area.lag));
  const Netlist lean = apply_retiming(n, g, area.lag);
  std::printf("  still multiplies: %s\n",
              check_multiplies(lean, bits, bits + 8) ? "yes" : "NO");

  // Minimum registers subject to the optimal period (the [SR94] objective).
  const auto both = min_area_retime_with_period(g, period.period);
  if (both) {
    std::printf("\nmin-area at period %d: %lld registers\n", period.period,
                static_cast<long long>(both->registers_after));
  }
  return 0;
}
