#pragma once
// Reference MBF evaluations that only tests and the gated bench rows call,
// written over the public MbfEngine / SimulatedGraph API.  Header-only and
// free of gtest: the bench harnesses include it, and they build without
// the test tree.
//
//   * mbf_step — one dense MBF-like iteration x ↦ r^V(A x).
//   * jacobi_oracle_run — the oracle as Equation (5.9) writes it: every
//     H-iteration applies x ↦ r^V ⊕_λ P_λ (r^V A_λ)^d P_λ x, each level
//     restarting from a full-frontier copy of P_λ x.  MbfOracle reaches
//     the same least fixpoint with Gauss–Seidel sweeps, so the final
//     states agree bit for bit (tests/test_oracle.cpp); the reference pays
//     every level in every H-iteration.

#include <cstdint>
#include <utility>
#include <vector>

#include "src/frt/le_lists.hpp"
#include "src/graph/graph.hpp"
#include "src/mbf/engine.hpp"
#include "src/oracle/mbf_oracle.hpp"
#include "src/parallel/counters.hpp"
#include "src/parallel/parallel.hpp"
#include "src/simgraph/simulated_graph.hpp"
#include "src/util/assertions.hpp"

namespace pmte::test {

/// One dense MBF-like iteration x ↦ r^V(A x): every vertex pulls from all
/// incident edges.  `weight_scale` scales edge weights before they enter
/// the semiring (the A_λ = (1+ε̂)^{Λ−λ}·A_G of Lemma 5.1).  With
/// `apply_filter == false` the raw product A x is returned (~-equivalent,
/// Corollary 2.17).
template <MbfAlgebra Algebra>
[[nodiscard]] std::vector<typename Algebra::State> mbf_step(
    const Graph& g, const Algebra& alg,
    const std::vector<typename Algebra::State>& x, double weight_scale = 1.0,
    bool apply_filter = true) {
  using State = typename Algebra::State;
  const Vertex n = g.num_vertices();
  PMTE_CHECK(x.size() == n, "mbf_step: state vector size mismatch");
  std::vector<State> out(n);
  parallel_for(n, [&](std::size_t vi) {
    const auto v = static_cast<Vertex>(vi);
    State acc = x[vi];  // diagonal: 1 ⊙ x_v = x_v   (2.1)
    for (const auto& e : g.neighbors(v)) {
      alg.relax(acc, e.weight * weight_scale, e.to, v, x[e.to]);
    }
    if (apply_filter) alg.filter(acc);
    out[vi] = std::move(acc);
  });
  const auto half_edges = static_cast<std::uint64_t>(2 * g.num_edges());
  WorkDepth::add_relaxations(half_edges);
  WorkDepth::add_edges_touched(half_edges);
  WorkDepth::add_depth_serial(1);
  return out;
}

/// The Jacobi oracle from r^V x⁽⁰⁾ until the filtered fixpoint or
/// `max_h_iterations` H-iterations.  One kAuto engine serves every level;
/// each level runs at most d = hop_bound() steps (the A_λ^d budget).
/// `stats` receives h_iterations, base_iterations, levels_full (one per
/// level per H-iteration) and reached_fixpoint.
template <OracleAlgebra Algebra>
[[nodiscard]] MbfRun<typename Algebra::State> jacobi_oracle_run(
    const SimulatedGraph& h, const Algebra& alg,
    std::vector<typename Algebra::State> x0, unsigned max_h_iterations,
    OracleStats* stats = nullptr) {
  using State = typename Algebra::State;
  const Vertex n = h.num_vertices();
  PMTE_CHECK(x0.size() == n, "jacobi_oracle_run: state size mismatch");
  const auto& levels = h.levels();
  MbfEngine<Algebra> engine(h.base(), alg, MbfOptions{.filter_initial = false});
  OracleStats st;
  MbfRun<State> run;
  mbf_filter(alg, x0);  // r^V x⁽⁰⁾
  run.states = std::move(x0);
  const auto& x = run.states;
  while (run.iterations < max_h_iterations && !run.reached_fixpoint) {
    std::vector<State> acc(n, alg.bottom());
    for (unsigned lambda = 0; lambda <= h.max_level(); ++lambda) {
      std::vector<State> seed(n);  // P_λ x
      parallel_for(n, [&](std::size_t v) {
        seed[v] = levels.level(static_cast<Vertex>(v)) >= lambda
                      ? x[v]
                      : alg.bottom();
      });
      engine.set_weight_scale(h.level_scale(lambda));
      engine.reset(std::move(seed));
      for (unsigned s = 0; s < h.hop_bound(); ++s) {
        ++st.base_iterations;
        if (!engine.step()) break;
      }
      ++st.levels_full;
      const std::vector<State> z = engine.take_states();
      parallel_for(n, [&](std::size_t v) {  // acc ⊕= P_λ z
        if (levels.level(static_cast<Vertex>(v)) >= lambda) {
          alg.aggregate(acc[v], z[v]);
        }
      });
      WorkDepth::add_depth_serial(1);
    }
    mbf_filter(alg, acc);
    ++run.iterations;
    bool fixpoint = true;
    for (Vertex v = 0; v < n && fixpoint; ++v) {
      fixpoint = alg.equal(acc[v], x[v]);
    }
    run.reached_fixpoint = fixpoint;
    run.states = std::move(acc);
  }
  if (stats != nullptr) {
    st.h_iterations = run.iterations;
    st.reached_fixpoint = run.reached_fixpoint;
    *stats = st;
  }
  return run;
}

/// le_lists_oracle through the Jacobi reference, under the same automatic
/// H-iteration cap.
[[nodiscard]] inline LeListsResult jacobi_le_lists(const SimulatedGraph& h,
                                                   const VertexOrder& order) {
  OracleStats stats;
  auto run = jacobi_oracle_run(h, LeListAlgebra{}, le_initial_state(order),
                               default_h_iteration_cap(h.num_vertices()),
                               &stats);
  LeListsResult r;
  r.lists = std::move(run.states);
  r.iterations = stats.h_iterations;
  r.base_iterations = stats.base_iterations;
  r.converged = stats.reached_fixpoint;
  r.levels_full = stats.levels_full;
  return r;
}

}  // namespace pmte::test
