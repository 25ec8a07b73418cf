// Mealy-machine state minimization by iterative partition refinement.
//
// Initial partition: states grouped by their full output row (outputs for
// every input symbol). Refinement: states grouped by (current class,
// successor class per input) until the partition is stable. O(n^2 * |I|)
// worst case with hashing-based splits — ample for the exhaustively
// extracted machines this library handles.

#include <algorithm>

#include "stg/refine.hpp"
#include "stg/stg.hpp"
#include "util/bits.hpp"
#include "util/error.hpp"

namespace rtv {

std::vector<std::uint32_t> equivalence_classes(const Stg& stg,
                                               ResourceBudget* budget) {
  // Initial split by output rows.
  const std::uint64_t ni = stg.num_inputs();
  std::vector<std::uint32_t> cls(stg.num_states());
  IdSet rows;  // of states, one per distinct output row
  std::uint32_t k = 0;
  for (std::uint64_t s = 0; s < cls.size(); ++s) {
    const auto t = rows.intern_words(stg.output_row(s), ni, stg.output_row(0),
                                     static_cast<std::uint32_t>(s));
    cls[s] = t == s ? k++ : cls[t];
  }
  return refine_partition(std::move(cls), stg.next_row(0), ni, budget);
}

std::uint32_t num_classes(const std::vector<std::uint32_t>& classes) {
  std::uint32_t max_id = 0;
  for (const std::uint32_t c : classes) max_id = std::max(max_id, c);
  return classes.empty() ? 0 : max_id + 1;
}

Stg quotient(const Stg& stg, const std::vector<std::uint32_t>& classes) {
  RTV_REQUIRE(classes.size() == stg.num_states(), "class vector size mismatch");
  const std::uint64_t ni = stg.num_inputs();
  return quotient_machine(classes, stg.next_row(0), ni, stg.num_output_bits(),
                          [&](std::uint64_t s, std::uint64_t* out) {
                            std::copy_n(stg.output_row(s), ni, out);
                          });
}

}  // namespace rtv
