#include "core/safety.hpp"

#include <cstdlib>
#include <sstream>

namespace rtv {

std::string SafetyReport::summary() const {
  std::ostringstream os;
  os << stats.summary() << " => " << stats.certificate();
  if (cls_certified_safe) {
    os << " [unsafe moves CLS-certified; " << certificate_census() << "]";
  }
  return os.str();
}

std::string SafetyReport::certificate_census() const {
  std::size_t by[4] = {};  // moves per CertificateArgument value
  for (const MoveCertificate& c : move_certificates) {
    ++by[static_cast<std::size_t>(c.argument)];
  }
  std::string census = std::to_string(move_certificates.size()) + " moves (" +
                       std::to_string(by[1]) + " all-X, " +
                       std::to_string(by[2]) + " unobservable, " +
                       std::to_string(by[3]) + " fixpoint";
  if (by[0] != 0) census += ", " + std::to_string(by[0]) + " uncertified";
  return census + ")";
}

namespace {

/// Above this moves × slots product, certificate argument 3 (whole-design
/// fixpoints at every move) would dominate the analysis; moves then get
/// arguments 1 and 2 only.
constexpr std::size_t kClsCertifyBudget = 4'000'000;

/// A visitor for the replay that applies the moves: it appends each
/// move's certificate to `out`, judged at the move's own position. Without
/// `census`, moves after the first uncertified one are not tried.
MoveVisitor certifier(const Netlist& netlist, std::size_t moves,
                      std::vector<MoveCertificate>& out, bool census = true) {
  out.reserve(moves);
  const bool try_fixpoint = moves * netlist.num_slots() <= kClsCertifyBudget;
  return [&out, try_fixpoint, census, observable = observable_mask(netlist)](
             const Netlist& before, const RetimingMove& move) {
    if (!census && !out.empty() && !out.back().certified) {
      out.push_back({false, CertificateArgument::kNone,
                     "not tried: an earlier move is uncertified"});
    } else {
      out.push_back(certify_move(before, move, observable, try_fixpoint));
    }
  };
}

SafetyReport make_report(const SequencedRetiming& seq,
                         std::vector<MoveCertificate> certificates) {
  SafetyReport report;
  report.stats = seq.stats;
  report.safe_replacement_guaranteed = seq.stats.preserves_safe_replacement();
  report.delay_bound = seq.stats.max_forward_per_non_justifiable;
  report.cls_certified_safe = seq.stats.forward_across_non_justifiable > 0;
  for (std::size_t i = 0; i < seq.classes.size(); ++i) {
    if (!seq.classes[i].preserves_safe_replacement() &&
        !certificates[i].certified) {
      report.cls_certified_safe = false;
    }
  }
  report.move_certificates = std::move(certificates);
  return report;
}

}  // namespace

SafetyReport analyze_lag_retiming(const Netlist& netlist,
                                  const RetimeGraph& graph,
                                  const std::vector<int>& lag,
                                  SequencedRetiming* sequenced,
                                  bool census) {
  std::size_t planned = 0;  // each unit of lag is one move
  for (std::size_t v = 2; v < lag.size(); ++v) {
    planned += static_cast<std::size_t>(std::abs(lag[v]));
  }
  std::vector<MoveCertificate> certificates;
  SequencedRetiming seq = sequence_retiming(
      netlist, graph, lag, certifier(netlist, planned, certificates, census));
  SafetyReport report = make_report(seq, std::move(certificates));
  if (sequenced != nullptr) *sequenced = std::move(seq);
  return report;
}

SafetyReport analyze_move_sequence(const Netlist& netlist,
                                   const std::vector<RetimingMove>& moves,
                                   Netlist* retimed) {
  SequencedRetiming seq{netlist, moves, {}, {}};
  std::vector<MoveCertificate> certificates;
  MoveReplay replay(seq.retimed,
                    certifier(netlist, moves.size(), certificates));
  seq.classes.resize(moves.size());
  for (std::size_t i = 0; i < moves.size(); ++i) {
    RTV_REQUIRE(replay.step(moves[i], &seq.classes[i]).enabled(),
                "retiming move is not enabled");
  }
  seq.stats = replay.stats();
  SafetyReport report = make_report(seq, std::move(certificates));
  if (retimed != nullptr) *retimed = std::move(seq.retimed);
  return report;
}

}  // namespace rtv
