#include "retime/difference_constraints.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace rtv {

namespace {
constexpr std::uint32_t kNone = 0xffffffffu;
}

DifferenceConstraints::DifferenceConstraints(std::uint32_t n)
    : first_(n, kNone), x_(n, 0), parent_(n, kNone), stamp_(n),
      queued_(n, false) {
  for (std::uint32_t v = 0; v < n; ++v) enqueue(v);
}

void DifferenceConstraints::add(std::uint32_t u, std::uint32_t v, int bound) {
  RTV_REQUIRE(u < x_.size() && v < x_.size(), "constraint vertex out of range");
  arcs_.push_back(Arc{u, first_[v], bound});
  first_[v] = static_cast<std::uint32_t>(arcs_.size() - 1);
  if (x_[v] + bound < x_[u]) enqueue(v);
}

void DifferenceConstraints::enqueue(std::uint32_t v) {
  if (!queued_[v]) queue_.push_back(v);
  queued_[v] = true;
}

bool DifferenceConstraints::solve() {
  while (!queue_.empty()) {
    const std::uint32_t v = queue_.front();
    queue_.pop_front();
    queued_[v] = false;
    for (std::uint32_t i = first_[v]; i != kNone; i = arcs_[i].next) {
      const Arc& a = arcs_[i];
      if (x_[v] + a.bound >= x_[a.head]) continue;
      x_[a.head] = x_[v] + a.bound;
      parent_[a.head] = v;
      if (++relaxations_ >= x_.size()) {
        relaxations_ = 0;
        if (parent_cycle()) return false;
      }
      enqueue(a.head);
    }
  }
  return true;
}

bool DifferenceConstraints::parent_cycle() {
  // Each vertex has at most one parent: walk each chain until it ends,
  // joins an earlier walk, or meets its own walk again (a cycle).
  std::fill(stamp_.begin(), stamp_.end(), kNone);
  const auto n = static_cast<std::uint32_t>(stamp_.size());
  for (std::uint32_t v = 0; v < n; ++v) {
    std::uint32_t u = v;
    while (u != kNone && stamp_[u] == kNone) {
      stamp_[u] = v;
      u = parent_[u];
    }
    if (u != kNone && stamp_[u] == v) return true;
  }
  return false;
}

}  // namespace rtv
