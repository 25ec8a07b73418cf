#include "sat/unroll.hpp"

namespace rtv::sat {

Unroller::Unroller(const Aig& aig, Solver& solver, bool constrain_init)
    : aig_(aig), solver_(solver), constrain_init_(constrain_init) {
  const Var t = solver_.new_var();
  solver_.add_clause({mk_lit(t, false)});
  const_true_ = mk_lit(t, false);
}

Lit Unroller::lit_at(Aig::Lit lit, std::size_t t) {
  while (frames_.size() <= t) build_frame(frames_.size());
  const Lit base = frames_[t][Aig::lit_var(lit)];
  return Aig::lit_negated(lit) ? neg(base) : base;
}

void Unroller::build_frame(std::size_t t) {
  std::vector<Lit>& frame = frames_.emplace_back();
  frame.resize(aig_.num_vars(), kLitUndef);

  // AND fanin variables always precede the AND, so one index-order walk
  // sees every variable after its drivers. Latch nexts reference the
  // PREVIOUS frame, which is complete by construction.
  std::vector<std::size_t> latch_index(aig_.num_vars(), 0);
  for (std::size_t i = 0; i < aig_.num_latches(); ++i) {
    latch_index[aig_.latch_var(i)] = i;
  }

  for (Aig::Var v = 0; v < aig_.num_vars(); ++v) {
    switch (aig_.kind(v)) {
      case Aig::NodeKind::kConst:
        frame[v] = neg(const_true_);  // var 0 positive literal = Aig::kFalse
        break;
      case Aig::NodeKind::kInput:
        frame[v] = mk_lit(solver_.new_var(), false);
        break;
      case Aig::NodeKind::kLatch: {
        const std::size_t i = latch_index[v];
        if (t == 0) {
          if (constrain_init_) {
            frame[v] = aig_.latch_init(i) ? const_true_ : neg(const_true_);
          } else {
            frame[v] = mk_lit(solver_.new_var(), false);
          }
        } else {
          const Aig::Lit next = aig_.latch_next(i);
          const Lit prev = frames_[t - 1][Aig::lit_var(next)];
          frame[v] = Aig::lit_negated(next) ? neg(prev) : prev;
        }
        break;
      }
      case Aig::NodeKind::kAnd: {
        const Aig::Lit a_lit = aig_.fanin0(v);
        const Aig::Lit b_lit = aig_.fanin1(v);
        const Lit a = Aig::lit_negated(a_lit) ? neg(frame[Aig::lit_var(a_lit)])
                                              : frame[Aig::lit_var(a_lit)];
        const Lit b = Aig::lit_negated(b_lit) ? neg(frame[Aig::lit_var(b_lit)])
                                              : frame[Aig::lit_var(b_lit)];
        const Lit f = mk_lit(solver_.new_var(), false);
        solver_.add_clause({neg(f), a});
        solver_.add_clause({neg(f), b});
        solver_.add_clause({f, neg(a), neg(b)});
        frame[v] = f;
        break;
      }
    }
  }
}

}  // namespace rtv::sat
