#include "src/frt/pipelines.hpp"

#include <algorithm>
#include <cmath>

#include "src/frt/dynamic_frt.hpp"
#include "src/obs/obs.hpp"
#include "src/parallel/counters.hpp"
#include "src/util/assertions.hpp"
#include "src/util/timer.hpp"

namespace pmte {

double resolve_eps_hat(double requested, Vertex n) {
  if (requested > 0.0) return requested;
  // ε̂ = 1/⌈log₂ n⌉² keeps the embedding distortion
  // (1+ε̂)^{Λ+1} ≈ e^{O(1/log n)} = 1 + o(1)  (Equation (4.16)); the
  // exponent of the polylog is "under our control" per the paper.
  const double log_n = std::ceil(std::max(1.0, std::log2(std::max<double>(n, 2))));
  return 1.0 / (log_n * log_n);
}

Weight dist_hint(const Graph& g) {
  const Weight w = g.min_edge_weight();
  return is_finite(w) ? w : 1.0;
}

FrtRandomness sample_frt_randomness(Vertex n, Rng& rng) {
  // Braced initialisers evaluate in order: β is drawn before the order.
  return {sample_beta(rng), VertexOrder::random(n, rng)};
}

SimulatedGraph build_oracle_graph(const Graph& g,
                                  const HubHopSetParams& hopset, double eps_hat,
                                  Rng& rng) {
  const HopSet hs = [&] {
    PMTE_OBS_SPAN("hopset.build", static_cast<std::int64_t>(g.num_vertices()),
                  "n");
    return build_hub_hopset(g, hopset, rng);
  }();
  PMTE_OBS_SPAN("simgraph.build", static_cast<std::int64_t>(hs.edges.size()),
                "hopset_edges");
  return build_simulated_graph(
      g, hs, resolve_eps_hat(eps_hat, g.num_vertices()), rng);
}

namespace {

std::size_t max_list_length(const std::vector<DistanceMap>& lists) {
  std::size_t worst = 0;
  for (const auto& l : lists) worst = std::max(worst, l.size());
  return worst;
}

void finish_sample(FrtSample& s, const WorkDepthScope& scope,
                   const Timer& timer) {
  s.work = scope.work_delta();
  s.relaxations = scope.relaxations_delta();
  s.edges_touched = scope.edges_touched_delta();
  s.seconds = timer.seconds();
}

/// Steps (1)–(4) for the pipelines whose LE lists come from one stateless
/// call `le_lists(order)`: draw, lists, tree.
template <class LeLists>
FrtSample sample_stateless(Vertex n, Weight dist_min_hint, Rng& rng,
                           const FrtOptions& opts, LeLists&& le_lists) {
  const Timer timer;
  const WorkDepthScope scope;
  FrtRandomness draw = sample_frt_randomness(n, rng);
  const LeListsResult le = le_lists(draw.order);
  FrtSample s;
  s.beta = draw.beta;
  s.iterations = le.iterations;
  s.max_list_length = max_list_length(le.lists);
  s.tree = FrtTree::build(le.lists, draw.order, draw.beta, dist_min_hint,
                          opts.rule);
  s.order = std::move(draw.order);
  finish_sample(s, scope, timer);
  return s;
}

}  // namespace

FrtSample sample_frt_direct(const Graph& g, Rng& rng,
                            const FrtOptions& opts) {
  PMTE_CHECK(g.num_vertices() >= 1, "empty graph");
  return sample_stateless(
      g.num_vertices(), dist_hint(g), rng, opts,
      [&](const VertexOrder& order) {
        return le_lists_iteration(g, order, opts.max_iterations);
      });
}

FrtSample sample_frt_oracle(const Graph& g, Rng& rng,
                            const FrtOptions& opts) {
  PMTE_CHECK(g.num_vertices() >= 1, "empty graph");
  const Timer timer;
  const WorkDepthScope scope;
  const auto h = build_oracle_graph(g, opts.hopset, opts.eps_hat, rng);
  auto sample = sample_frt_oracle_on(h, rng, opts);
  finish_sample(sample, scope, timer);
  return sample;
}

FrtSample sample_frt_oracle_on(const SimulatedGraph& h, Rng& rng,
                               const FrtOptions& opts) {
  const Timer timer;
  const WorkDepthScope scope;
  DynamicFrt frt(h, rng, opts);
  const OracleStats& stats = frt.oracle_stats();
  FrtSample s;
  s.beta = frt.beta();
  s.order = frt.order();
  s.iterations = stats.h_iterations;
  s.base_iterations = stats.base_iterations;
  s.levels_skipped = stats.levels_skipped;
  s.levels_warm = stats.levels_warm;
  s.levels_full = stats.levels_full;
  s.max_list_length = max_list_length(frt.lists());
  s.hopset_edges = h.hopset_edges();
  s.tree = std::move(frt).take_tree();
  finish_sample(s, scope, timer);
  return s;
}

FrtSample sample_frt_metric(const std::vector<Weight>& metric, Vertex n,
                            Weight dist_min_hint, Rng& rng,
                            const FrtOptions& opts) {
  return sample_stateless(n, dist_min_hint, rng, opts,
                          [&](const VertexOrder& order) {
                            return le_lists_from_metric(metric, order);
                          });
}

FrtSample sample_frt_sequential(const Graph& g, Rng& rng,
                                const FrtOptions& opts) {
  PMTE_CHECK(g.num_vertices() >= 1, "empty graph");
  return sample_stateless(g.num_vertices(), dist_hint(g), rng, opts,
                          [&](const VertexOrder& order) {
                            return le_lists_sequential(g, order);
                          });
}

}  // namespace pmte
