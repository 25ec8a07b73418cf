// The in-repo corpus and its known answers.
//
// Known answers never come from the engine under test:
//  1. a retimed pair is expected `equivalent` only when both designs pass
//     Netlist::all_cells_preserve_all_x() — Cor 5.3's premise. Without it
//     a refutation can be right (min-area retiming lags the kConst0 cells of
//     pipelined_multiplier(4,1)), so such pairs carry no claim;
//  2. a mutant (a retimed design against itself with one stuck-at fault the
//     kCls fault simulator detects) is expected `not equivalent`, and the
//     detecting test is replayed on ClsSimulator here, in setup;
//  3. every counterexample a workload gets back is replayed on ClsSimulator
//     by the workload itself (distinguishes()).

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "core/safety.hpp"
#include "fault/engine.hpp"
#include "fault/fault.hpp"
#include "gen/datapath.hpp"
#include "gen/iscas.hpp"
#include "gen/paper_circuits.hpp"
#include "gen/random_circuits.hpp"
#include "gen/shift.hpp"
#include "io/rnl_format.hpp"
#include "retime/graph.hpp"
#include "retime/min_area.hpp"
#include "retime/min_period.hpp"
#include "sim/cls_sim.hpp"

namespace vb {

using namespace rtv;

const char* to_string(Objective objective) {
  return objective == Objective::kMinArea ? "min-area" : "min-period";
}

const char* to_string(Expect expect) {
  switch (expect) {
    case Expect::kEquivalent: return "equivalent";
    case Expect::kNotEquivalent: return "not-equivalent";
    case Expect::kNoClaim: return "no-claim";
  }
  return "?";
}

std::size_t Corpus::find(const std::string& name) const {
  for (std::size_t i = 0; i < designs.size(); ++i) {
    if (designs[i].name == name) return i;
  }
  throw std::runtime_error("corpus has no design " + name);
}

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path + " (run from the repository root)");
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

struct RandomSpec {
  unsigned gates;
  std::uint64_t seed;
  bool tables;
};

// Random designs, fixed so that no query straddles its per-query limit.
// "_t" designs carry table cells, which may be non-justifiable and exercise
// the unsafe-move paths.
const RandomSpec kRandom[] = {
    {30, 2, false},  {30, 2, true},  {30, 3, false},  {30, 3, true},
    {60, 1, false},  {60, 2, false}, {60, 3, false},  {90, 1, false},
    {90, 1, true},   {90, 2, false}, {90, 2, true},   {120, 1, false},
    {120, 1, true},  {120, 2, false}, {120, 2, true}, {120, 3, true},
};

std::string random_name(const RandomSpec& r) {
  return "rand" + std::to_string(r.gates) + "_s" + std::to_string(r.seed) +
         (r.tables ? "_t" : "");
}

}  // namespace

Corpus build_corpus() {
  Corpus c;
  const auto add = [&](std::string name, std::string why, const Netlist& n) {
    c.designs.push_back(Design{std::move(name), std::move(why), write_rnl(n)});
  };
  add("fig1", "paper Fig 1 design D: the junction move that breaks safe replacement",
      figure1_original());
  add("s27", "ISCAS-89 s27: reconvergent fanout, the classic retiming benchmark",
      iscas_s27());
  for (const char* ex : {"and_pipeline", "mux_select", "resettable_toggle", "shift3"}) {
    c.designs.push_back(Design{ex, "shipped example examples/" + std::string(ex) + ".rnl",
                               read_file(std::string("examples/") + ex + ".rnl")});
  }
  const std::pair<unsigned, unsigned> adders[] = {{4, 2}, {8, 2}, {8, 3}, {16, 4}, {32, 4}};
  for (const auto& [bits, stages] : adders) {
    add("adder" + std::to_string(bits) + "_" + std::to_string(stages),
        "pipelined adder: const-free datapath; (4,2) exhausts the explicit default",
        pipelined_adder(bits, stages));
  }
  add("mult4_1", "pipelined multiplier with kConst0 cells: min-area breaks Cor 5.3's premise",
      pipelined_multiplier(4, 1));
  add("mult6_2", "larger pipelined multiplier: 205 latches, bounded explicit check",
      pipelined_multiplier(6, 2));
  add("ctrl8", "controller+datapath, only the controller reset: exhausts every engine",
      controller_datapath(8));
  add("shift8", "8-latch shift register: deep but trivially equivalent", shift_register(8));
  add("lfsr8", "8-latch LFSR: feedback loop the static fixpoint decides", lfsr(8, {0, 3, 5}));
  add("ring6", "6-latch twisted ring: feedback through an inverter", twisted_ring(6));
  for (const RandomSpec& spec : kRandom) {
    RandomCircuitOptions o;
    o.num_gates = spec.gates;
    o.num_latches = 8;
    o.table_probability = spec.tables ? 0.2 : 0.0;
    Rng rng(spec.seed);
    add(random_name(spec),
        "seeded random netlist, " + std::to_string(spec.gates) + " gates" +
            (spec.tables ? ", 20% table cells" : ", primitive gates"),
        random_netlist(o, rng));
  }
  return c;
}

namespace {

void uniquify_names(Netlist& n) {
  // Retiming a parsed design names its new latches from a counter that
  // restarts at zero, so they can repeat names the text already used, and
  // read_rnl rejects duplicate names. Suffix the repeats before writing.
  std::set<std::string> seen;
  for (NodeId id : n.live_nodes()) {
    const std::string name = n.name(id);
    if (name.empty() || seen.insert(name).second) continue;
    std::string fresh;
    for (int k = 0; !seen.insert(fresh = name + "_r" + std::to_string(k)).second; ++k) {
    }
    n.set_name(id, fresh);
  }
}

}  // namespace

Netlist retime(const Netlist& original, Objective objective) {
  // Compacted, as `rtv retime -o` writes it: the text a designer hands over.
  const RetimeGraph g = RetimeGraph::from_netlist(original);
  const std::vector<int> lag = objective == Objective::kMinArea
                                   ? min_area_retime(g).lag
                                   : min_period_retime_feas(g).lag;
  SequencedRetiming seq;
  analyze_lag_retiming(original, g, lag, &seq);
  Netlist out = seq.retimed.compacted();
  uniquify_names(out);
  return out;
}

bool distinguishes(const Netlist& a, const Netlist& b, const TritsSeq& inputs) {
  ClsSimulator sa(a), sb(b);
  return sa.run(inputs) != sb.run(inputs);
}

std::vector<ValidateQuery> validate_queries(const Corpus& corpus) {
  // Designs whose validation straddles the 200 ms limit (the STG phase or
  // the pair BFS finishes between 100 ms and a few seconds) stay out of
  // this workload; the equivalence workload still uses some of them.
  const char* excluded[] = {"rand30_s3", "rand30_s3_t"};
  std::vector<ValidateQuery> out;
  for (std::size_t i = 0; i < corpus.designs.size(); ++i) {
    const Design& d = corpus.designs[i];
    if (std::find(std::begin(excluded), std::end(excluded), d.name) != std::end(excluded)) {
      continue;
    }
    const Netlist n = read_rnl(d.text);
    for (Objective obj : {Objective::kMinArea, Objective::kMinPeriod}) {
      const Netlist r = retime(n, obj);
      out.push_back(ValidateQuery{d.name + "/" + to_string(obj), i, obj,
                                  n.all_cells_preserve_all_x() &&
                                      r.all_cells_preserve_all_x()});
    }
  }
  return out;
}

EquivPair retimed_pair(const Corpus& corpus, const std::string& name, Objective obj) {
  const Design& d = corpus.designs[corpus.find(name)];
  const Netlist n = read_rnl(d.text);
  const Netlist r = retime(n, obj);
  EquivPair p;
  p.name = d.name + "/" + to_string(obj);
  p.kind = "retimed";
  p.text_a = d.text;
  p.text_b = write_rnl(r);
  p.expect = n.all_cells_preserve_all_x() && r.all_cells_preserve_all_x()
                 ? Expect::kEquivalent
                 : Expect::kNoClaim;
  return p;
}

EquivPair paper_pair() {
  // The paper's own pair: Fig 1's D against its hand-retimed C.
  const Netlist c = figure1_retimed();
  const Netlist d = figure1_original();
  return EquivPair{"fig1/paper", "retimed", write_rnl(d), write_rnl(c),
                   d.all_cells_preserve_all_x() && c.all_cells_preserve_all_x()
                       ? Expect::kEquivalent
                       : Expect::kNoClaim};
}

EquivPair mutant_pair(const Corpus& corpus, const std::string& name) {
  // The retimed (min-area) design against itself with one collapsed
  // stuck-at fault that kCls fault simulation detects: the middle one of
  // the detected faults, so the choice is fixed per design.
  const Design& d = corpus.designs[corpus.find(name)];
  const Netlist r = retime(read_rnl(d.text), Objective::kMinArea);
  Rng rng(0x5eed);
  std::vector<BitsSeq> tests(16);
  for (BitsSeq& seq : tests) {
    for (int t = 0; t < 12; ++t) {
      Bits in(r.primary_inputs().size());
      for (auto& v : in) v = rng.coin();
      seq.push_back(std::move(in));
    }
  }
  FaultSimOptions fo;
  fo.mode = FaultSimMode::kCls;
  const std::vector<Fault> faults = collapse_faults(r);
  const FaultSimResult fr = FaultSimEngine(r, tests, fo).run(faults);
  std::vector<std::size_t> detected;
  for (std::size_t i = 0; i < faults.size(); ++i) {
    if (fr.detected[i]) detected.push_back(i);
  }
  if (detected.empty()) throw std::runtime_error("no kCls-detected fault in " + d.name);
  const std::size_t f = detected[detected.size() / 2];
  Netlist m = inject_fault(r, faults[f]);
  uniquify_names(m);
  const TritsSeq witness = to_trits(tests[static_cast<std::size_t>(fr.detecting_test[f])]);
  if (!distinguishes(r, m, witness)) {
    throw std::runtime_error("kCls witness for the mutant of " + d.name +
                             " does not replay on ClsSimulator");
  }
  return EquivPair{d.name + "/mutant", "mutant", write_rnl(r), write_rnl(m),
                   Expect::kNotEquivalent};
}

std::vector<EquivPair> equiv_pairs(const Corpus& corpus) {
  std::vector<EquivPair> out;
  // Retimed pairs: (original, retimed) for the listed objective.
  const std::pair<const char*, Objective> retimed[] = {
      {"fig1", Objective::kMinArea},        {"fig1", Objective::kMinPeriod},
      {"s27", Objective::kMinArea},         {"s27", Objective::kMinPeriod},
      {"and_pipeline", Objective::kMinArea}, {"mux_select", Objective::kMinArea},
      {"resettable_toggle", Objective::kMinArea}, {"shift3", Objective::kMinPeriod},
      {"adder4_2", Objective::kMinArea},    {"adder4_2", Objective::kMinPeriod},
      {"adder8_2", Objective::kMinArea},    {"adder8_3", Objective::kMinArea},
      {"adder16_4", Objective::kMinArea},   {"adder32_4", Objective::kMinPeriod},
      {"mult4_1", Objective::kMinArea},     {"mult4_1", Objective::kMinPeriod},
      {"mult6_2", Objective::kMinArea},     {"ctrl8", Objective::kMinArea},
      {"shift8", Objective::kMinArea},      {"lfsr8", Objective::kMinArea},
      {"ring6", Objective::kMinPeriod},     {"rand30_s2", Objective::kMinArea},
      {"rand30_s2_t", Objective::kMinPeriod}, {"rand30_s3", Objective::kMinArea},
      {"rand30_s3_t", Objective::kMinArea}, {"rand60_s1", Objective::kMinArea},
      {"rand60_s3", Objective::kMinPeriod}, {"rand90_s2_t", Objective::kMinArea},
      {"rand90_s2_t", Objective::kMinPeriod},
  };
  for (const auto& [name, obj] : retimed) out.push_back(retimed_pair(corpus, name, obj));
  out.push_back(paper_pair());

  // Mutants, one per listed design.
  const char* mutated[] = {
      "fig1",      "s27",       "and_pipeline", "shift3",      "adder4_2",
      "adder8_2",  "adder8_3",  "adder16_4",    "adder32_4",   "mult4_1",
      "mult6_2",   "ctrl8",     "shift8",       "rand30_s2",   "rand30_s2_t",
      "rand30_s3", "rand30_s3_t", "rand60_s1",  "rand60_s2",   "rand60_s3",
      "rand90_s1", "rand90_s1_t", "rand90_s2_t", "rand120_s1", "rand120_s2",
      "rand120_s3_t",
  };
  for (const char* name : mutated) out.push_back(mutant_pair(corpus, name));
  return out;
}

}  // namespace vb
