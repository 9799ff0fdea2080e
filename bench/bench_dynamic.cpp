// E-dynamic — incremental FRT maintenance (src/serve/dynamic_ensemble.*):
// the cost of absorbing one edge-weight update into a retained oracle
// ensemble versus rebuilding the ensemble from scratch.
//
// Claims carried: a local weight decrease warm-restarts only the levels
// the change reaches (relaxations a small fraction of a rebuild — the
// <10%-of-rebuild figure is the headline of BENCH_dynamic.json), while an
// increase invalidates and re-runs every level, bounding the worst case by
// one fresh oracle build.  All counts are logical and thread-invariant;
// the maintained metric is pinned against the static build by
// tests/test_dynamic.cpp.
//
// `--counters` emits the deterministic scenarios for the CI bench gate
// (the ninth gated baseline, BENCH_dynamic.json): build work, update-path
// relaxations for a warm decrease and an invalidating increase, and the
// relaxation bill of the rebuild they are measured against.

#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "bench/bench_common.hpp"
#include "src/parallel/counters.hpp"
#include "src/serve/dynamic_ensemble.hpp"
#include "src/serve/workloads.hpp"

namespace pmte::bench {
namespace {

serve::EnsembleOptions dynamic_options(std::size_t trees) {
  serve::EnsembleOptions opts;
  opts.trees = trees;
  opts.pipeline = serve::EnsemblePipeline::oracle;  // retained-oracle path
  return opts;
}

/// Append an UpdateStats row.  relaxations is the gate metric; the level
/// split and trees_rebuilt are ungated shape counters (see
/// scripts/check_bench_regression.py).
CounterScenario update_scenario(
    const std::string& name,
    const serve::DynamicEnsemble::UpdateStats& st) {
  return CounterScenario{name,
                         {{"relaxations", st.relaxations},
                          {"levels_recomputed", st.levels_recomputed},
                          {"levels_skipped", st.levels_skipped},
                          {"trees_rebuilt", st.trees_rebuilt},
                          {"incremental", st.incremental ? 1u : 0u}}};
}

void run_counters() {
  std::vector<CounterScenario> scenarios;
  Rng grng(42);
  const auto g = make_gnm(512, 1536, {1.0, 4.0}, grng);
  const std::uint64_t seed = 4001;
  constexpr std::size_t kTrees = 4;

  {
    const WorkDepthScope scope;
    serve::DynamicEnsemble dyn(g, seed, dynamic_options(kTrees));
    scenarios.push_back(
        CounterScenario{"dynamic_build_oracle_gnm_512",
                        {{"relaxations", scope.relaxations_delta()},
                         {"work", scope.work_delta()},
                         {"edges_touched", scope.edges_touched_delta()},
                         {"trees", kTrees}}});

    // One local decrease: the warm path touches only the levels the edge
    // reaches, so its relaxation bill must stay a small fraction of the
    // rebuild row below (<10% is the figure docs/DYNAMIC.md quotes).
    const auto dec_edge = g.edge_list()[17];
    const auto dec = dyn.update(dec_edge.u, dec_edge.v,
                                g.edge_weight(dec_edge.u, dec_edge.v) * 0.5);
    scenarios.push_back(update_scenario("dynamic_update_local_decrease", dec));

    // One increase on another edge: invalidates and re-runs every level —
    // the worst case, bounded by one fresh oracle build.
    const auto inc_edge = g.edge_list()[91];
    const auto inc =
        dyn.update(inc_edge.u, inc_edge.v,
                   dyn.graph().edge_weight(inc_edge.u, inc_edge.v) * 1.5);
    scenarios.push_back(
        update_scenario("dynamic_update_increase_invalidate", inc));

    // Pin the maintained metric's served doubles (ungated hash; the
    // bit-level contract lives in tests/test_dynamic.cpp).
    Rng wrng(4002);
    serve::WorkloadOptions wopts;
    wopts.pairs = 20000;
    const auto workload =
        serve::make_workload(g, serve::WorkloadKind::uniform, wopts, wrng);
    std::vector<Weight> out;
    const auto qs = dyn.snapshot().query_batch(
        workload, serve::AggregatePolicy::min, out);
    scenarios.push_back(CounterScenario{"dynamic_snapshot_query_uniform_min",
                                        {{"queries", qs.pairs},
                                         {"tree_lookups", qs.tree_lookups},
                                         {"result_hash32", result_hash32(out)}}});
  }

  // The rebuild both update rows are measured against: a fresh static
  // build on the post-update graph (same seed/options — the cost an
  // update-free deployment would pay per change).
  {
    Graph updated = g;
    const auto e = g.edge_list()[17];
    updated.set_edge_weight(e.u, e.v, g.edge_weight(e.u, e.v) * 0.5);
    const auto built =
        serve::FrtEnsemble::build(updated, seed, dynamic_options(kTrees));
    const auto& st = built.build_stats();
    scenarios.push_back(
        CounterScenario{"dynamic_rebuild_reference_gnm_512",
                        {{"relaxations", st.relaxations},
                         {"work", st.work},
                         {"edges_touched", st.edges_touched},
                         {"iterations", st.iterations}}});
  }

  emit_counters(std::cout, scenarios);
}

void run(const Cli& cli) {
  print_header(
      "E-dynamic: incremental FRT maintenance",
      "a local weight decrease warm-restarts only the affected oracle "
      "levels (relaxations a small fraction of a rebuild); an increase "
      "invalidates and is bounded by one fresh build; snapshots stay "
      "bit-identical to the maintained metric at any thread count");
  const std::size_t trees = quick(cli) ? 2 : 4;
  Rng rng(cli.seed());
  Table t({"family", "n", "op", "relaxations", "levels", "time [ms]",
           "vs rebuild"});
  for (const Vertex n : quick(cli)
                            ? std::vector<Vertex>{256, 512}
                            : std::vector<Vertex>{256, 512, 1024, 2048}) {
    auto inst = make_instance("gnm", n, rng());
    const std::uint64_t seed = rng();
    const auto opts = dynamic_options(trees);

    const Timer build_t;
    serve::DynamicEnsemble dyn(inst.graph, seed, opts);
    const double build_ms = build_t.seconds() * 1e3;
    const auto rebuild_relax =
        serve::FrtEnsemble::build(inst.graph, seed, opts)
            .build_stats()
            .relaxations;
    t.add_row({inst.name, cell(std::size_t{n}), "build", "-", "-",
               cell(build_ms), "1.000x"});

    const auto& edges = inst.graph.edge_list();
    const auto time_update = [&](const char* op, std::size_t idx,
                                 double factor) {
      const auto& e = edges[idx % edges.size()];
      const Timer ut;
      const auto st = dyn.update(
          e.u, e.v, dyn.graph().edge_weight(e.u, e.v) * factor);
      const double ms = ut.seconds() * 1e3;
      const double frac = rebuild_relax
                              ? static_cast<double>(st.relaxations) /
                                    static_cast<double>(rebuild_relax)
                              : 0.0;
      t.add_row({inst.name, cell(std::size_t{n}), op,
                 cell(std::size_t{st.relaxations}),
                 cell(std::size_t{st.levels_recomputed}), cell(ms),
                 cell(frac) + "x"});
    };
    time_update("decrease", 17, 0.5);
    time_update("increase", 91, 1.5);
  }
  t.print();
}

}  // namespace
}  // namespace pmte::bench

int main(int argc, char** argv) {
  if (pmte::bench::wants_counters(argc, argv)) {
    pmte::bench::run_counters();
    return 0;
  }
  const pmte::Cli cli(argc, argv);
  pmte::bench::run(cli);
  return 0;
}
