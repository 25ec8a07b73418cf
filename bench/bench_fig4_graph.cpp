// E4 — Figure 4: the Leiserson–Saxe edge-weighted digraph cannot tell the
// paper's D and C apart: identical vertex/edge structure — the latch's
// position relative to the fanout junction lives only in the netlist.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "gen/paper_circuits.hpp"
#include "retime/graph.hpp"

namespace rtv {

namespace {

std::vector<std::string> edge_signature(const RetimeGraph& g,
                                        const Netlist& n,
                                        bool with_weights) {
  std::vector<std::string> sig;
  for (const auto& e : g.edges()) {
    const auto vname = [&](std::uint32_t v) {
      return v <= RetimeGraph::kHostSink ? std::string("host")
                                         : n.name(g.vertex_origin(v));
    };
    std::string s = vname(e.from) + " -> " + vname(e.to);
    if (with_weights) s += " (w=" + std::to_string(e.weight) + ")";
    sig.push_back(s);
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

}  // namespace

void report() {
  bench::heading("E4 / Figure 4", "D and C share one retiming graph");
  const Netlist dn = figure1_original();
  const Netlist cn = figure1_retimed();
  const RetimeGraph gd = RetimeGraph::from_netlist(dn);
  const RetimeGraph gc = RetimeGraph::from_netlist(cn);

  std::printf("D: %s\nC: %s\n\n", gd.summary().c_str(), gc.summary().c_str());
  std::printf("%-28s | %-28s\n", "edges of graph(D)", "edges of graph(C)");
  const auto sd = edge_signature(gd, dn, true);
  const auto sc = edge_signature(gc, cn, true);
  for (std::size_t i = 0; i < std::max(sd.size(), sc.size()); ++i) {
    std::printf("%-28s | %-28s\n", i < sd.size() ? sd[i].c_str() : "",
                i < sc.size() ? sc[i].c_str() : "");
  }
  std::printf("\nconnectivity identical: %s (paper: yes — only the weight\n"
              "placement across junction J1 differs, which is exactly what\n"
              "the graph model cannot express)\n",
              edge_signature(gd, dn, false) == edge_signature(gc, cn, false)
                  ? "yes"
                  : "no");
}

namespace {

void BM_GraphFromNetlist(benchmark::State& state) {
  const Netlist d = figure1_original();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RetimeGraph::from_netlist(d));
  }
}
BENCHMARK(BM_GraphFromNetlist);

void BM_ClockPeriod(benchmark::State& state) {
  const RetimeGraph g = RetimeGraph::from_netlist(figure1_original());
  for (auto _ : state) {
    benchmark::DoNotOptimize(g.clock_period());
  }
}
BENCHMARK(BM_ClockPeriod);

}  // namespace
}  // namespace rtv

RTV_BENCH_MAIN(rtv::report)
